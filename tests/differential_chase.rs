//! Differential testing of the typed chase (the Lemma A.3 engine with
//! adaptive blocking) against the plain oblivious chase: on randomized
//! guarded ontologies and databases, ground atoms and query answers must
//! agree wherever both engines are authoritative.
//!
//! Randomization is a seeded loop over [`Rng`] (the build is offline, so no
//! proptest); every TGD subset mask 0..128 is exercised with a database
//! derived from it, which covers strictly more rule combinations than the
//! sampled proptest run did.

mod common;

use common::{arb_guarded_db, guarded_rule_pool, sigma_for_mask};
use gtgd::chase::{chase, ground_saturation, typed_chase, ChaseBudget, DepthPolicy};
use gtgd::data::Rng;
use gtgd::query::{evaluate_cq, parse_cq, Cq};

fn query_pool() -> Vec<Cq> {
    vec![
        parse_cq("Q(X) :- A(X)").unwrap(),
        parse_cq("Q(X) :- B(X)").unwrap(),
        parse_cq("Q(X) :- R(X,Y), S(Y,Z)").unwrap(),
        parse_cq("Q() :- R(X,Y), B(Y)").unwrap(),
        parse_cq("Q(X,Y) :- S(X,Y), A(X)").unwrap(),
    ]
}

/// Ground saturation equals the ground part of a deep plain chase.
#[test]
fn ground_saturation_matches_deep_chase() {
    let pool = guarded_rule_pool();
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0xD1FF ^ u64::from(mask));
        let d = arb_guarded_db(&mut rng, 8);
        let sigma = sigma_for_mask(&pool, mask);
        let sat = ground_saturation(&d, &sigma);
        let deep = chase(&d, &sigma, &ChaseBudget::levels(7));
        // Every ground atom of the deep prefix appears in the saturation…
        for a in deep.instance.iter() {
            if a.args.iter().all(|v| d.dom_contains(*v)) {
                assert!(sat.contains(a), "missing {a} (mask {mask:#b})");
            }
        }
        // …and the saturation is sound w.r.t. the deep prefix when the
        // prefix is complete.
        if deep.complete {
            for a in sat.iter() {
                assert!(deep.instance.contains(a), "unsound {a} (mask {mask:#b})");
            }
        }
    }
}

/// Typed-chase query answers over dom(D) match a deep plain chase whenever
/// the typed chase reports saturation.
#[test]
fn typed_chase_answers_match_plain_chase() {
    let pool = guarded_rule_pool();
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0x7E57 ^ u64::from(mask));
        let d = arb_guarded_db(&mut rng, 8);
        let sigma = sigma_for_mask(&pool, mask);
        let typed = typed_chase(
            &d,
            &sigma,
            DepthPolicy::Adaptive {
                extra_levels: 4,
                max_level: 24,
            },
        );
        let deep = chase(&d, &sigma, &ChaseBudget::levels(8));
        for q in query_pool() {
            let filter = |ans: std::collections::HashSet<Vec<gtgd::data::Value>>| {
                ans.into_iter()
                    .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
                    .collect::<std::collections::HashSet<_>>()
            };
            let from_typed = filter(evaluate_cq(&q, &typed.instance));
            let from_deep = filter(evaluate_cq(&q, &deep.instance));
            if typed.saturated {
                // The typed chase is authoritative: it must cover everything
                // the deep prefix finds.
                assert!(
                    from_deep.is_subset(&from_typed),
                    "typed chase missed answers for {q} (mask {mask:#b}): \
                     deep {from_deep:?} vs typed {from_typed:?}"
                );
            }
            // Soundness both ways: typed answers must come from real chase
            // atoms, so when the plain chase is complete they must appear.
            if deep.complete {
                assert!(
                    from_typed.is_subset(&from_deep),
                    "typed chase invented answers for {q} (mask {mask:#b})"
                );
            }
        }
    }
}
