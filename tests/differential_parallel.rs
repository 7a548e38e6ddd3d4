//! Differential testing of the parallel execution layer against the
//! sequential engines: on randomized TGD sets and databases, for several
//! worker counts,
//!
//! * `par_chase` must produce an instance *isomorphic* to the sequential
//!   `chase` (null identities come from a global counter, so only the shape
//!   is comparable), with identical levels, completeness, and atom counts;
//! * `par_ground_saturation` must be *equal* to `ground_saturation` (its
//!   output mentions only named constants);
//! * CQ answer sets enumerated by `HomSearch::par_all` /
//!   `evaluate_cq_par` must be identical, as sorted sets, to the
//!   sequential evaluation.

mod common;

use common::{arb_guarded_db, guarded_rule_pool, sigma_for_mask};
use gtgd::chase::{chase, ground_saturation, par_chase, par_ground_saturation, ChaseBudget};
use gtgd::data::{Rng, Value};
use gtgd::query::{evaluate_cq, evaluate_cq_par, instance_isomorphic, parse_cq, Cq};

const WORKER_WIDTHS: [usize; 3] = [1, 2, 4];

fn query_pool() -> Vec<Cq> {
    vec![
        parse_cq("Q(X) :- A(X)").unwrap(),
        parse_cq("Q(X) :- B(X)").unwrap(),
        parse_cq("Q(X) :- R(X,Y), S(Y,Z)").unwrap(),
        parse_cq("Q(X,Y) :- S(X,Y), A(X)").unwrap(),
        parse_cq("Q() :- R(X,Y), B(Y)").unwrap(),
    ]
}

fn sorted_answers(ans: std::collections::HashSet<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut v: Vec<Vec<Value>> = ans.into_iter().collect();
    v.sort();
    v
}

/// The parallel chase agrees with the sequential chase up to isomorphism on
/// randomized guarded ontologies, for every worker width.
#[test]
fn par_chase_isomorphic_to_sequential() {
    let pool = guarded_rule_pool();
    let budget = ChaseBudget::levels(5);
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0xAB5E ^ u64::from(mask));
        let d = arb_guarded_db(&mut rng, 9);
        let sigma = sigma_for_mask(&pool, mask);
        let seq = chase(&d, &sigma, &budget);
        for w in WORKER_WIDTHS {
            let par = par_chase(&d, &sigma, &budget, w);
            assert_eq!(
                par.instance.len(),
                seq.instance.len(),
                "atom count differs (mask {mask:#b}, workers {w})"
            );
            assert_eq!(
                par.levels, seq.levels,
                "levels differ (mask {mask:#b}, workers {w})"
            );
            assert_eq!(par.complete, seq.complete, "mask {mask:#b}, workers {w}");
            assert_eq!(par.max_level, seq.max_level, "mask {mask:#b}, workers {w}");
            assert!(
                instance_isomorphic(&par.instance, &seq.instance),
                "not isomorphic (mask {mask:#b}, workers {w})"
            );
        }
    }
}

/// CQ answers over the parallel chase result, restricted to the database
/// domain, match the sequential chase's answers as sorted sets. (Over the
/// full instance answers may mention nulls, whose labels legitimately
/// differ between runs.)
#[test]
fn par_chase_preserves_ground_query_answers() {
    let pool = guarded_rule_pool();
    let budget = ChaseBudget::levels(5);
    for mask in (0u8..128).step_by(3) {
        let mut rng = Rng::seed(0xBEEF ^ u64::from(mask));
        let d = arb_guarded_db(&mut rng, 9);
        let sigma = sigma_for_mask(&pool, mask);
        let seq = chase(&d, &sigma, &budget);
        let par = par_chase(&d, &sigma, &budget, 4);
        for q in query_pool() {
            let ground_only = |ans: std::collections::HashSet<Vec<Value>>| {
                ans.into_iter()
                    .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
                    .collect::<std::collections::HashSet<_>>()
            };
            let a = sorted_answers(ground_only(evaluate_cq(&q, &seq.instance)));
            let b = sorted_answers(ground_only(evaluate_cq(&q, &par.instance)));
            assert_eq!(a, b, "answers differ for {q} (mask {mask:#b})");
        }
    }
}

/// The parallel ground saturation is set-equal to the sequential one for
/// every worker width.
#[test]
fn par_saturation_equals_sequential() {
    let pool = guarded_rule_pool();
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0x5A7 ^ u64::from(mask));
        let d = arb_guarded_db(&mut rng, 9);
        let sigma = sigma_for_mask(&pool, mask);
        let seq = ground_saturation(&d, &sigma);
        for w in WORKER_WIDTHS {
            assert_eq!(
                par_ground_saturation(&d, &sigma, w),
                seq,
                "saturation differs (mask {mask:#b}, workers {w})"
            );
        }
    }
}

/// Parallel answer enumeration is identical (as a sorted set) to the
/// sequential evaluation, over both raw databases and chase results.
#[test]
fn par_enumeration_matches_sequential() {
    let pool = guarded_rule_pool();
    for mask in (0u8..128).step_by(5) {
        let mut rng = Rng::seed(0xE9A ^ u64::from(mask));
        let d = arb_guarded_db(&mut rng, 9);
        let sigma = sigma_for_mask(&pool, mask);
        let chased = chase(&d, &sigma, &ChaseBudget::levels(4)).instance;
        for target in [&d, &chased] {
            for q in query_pool() {
                let seq = sorted_answers(evaluate_cq(&q, target));
                for w in WORKER_WIDTHS {
                    let par = sorted_answers(evaluate_cq_par(&q, target, w));
                    assert_eq!(
                        par, seq,
                        "answers differ for {q} (mask {mask:#b}, workers {w})"
                    );
                }
            }
        }
    }
}

/// The parallel chase is itself deterministic: the same inputs give the
/// same instance shape for every worker count, including the trigger order
/// (atom-by-atom level agreement across widths).
#[test]
fn par_chase_deterministic_across_widths() {
    let pool = guarded_rule_pool();
    let budget = ChaseBudget::levels(5);
    for mask in [0b0000111u8, 0b1010101, 0b1111111] {
        let mut rng = Rng::seed(0xD5 ^ u64::from(mask));
        let d = arb_guarded_db(&mut rng, 9);
        let sigma = sigma_for_mask(&pool, mask);
        let reference = par_chase(&d, &sigma, &budget, 1);
        for w in [2, 3, 4, 8] {
            let r = par_chase(&d, &sigma, &budget, w);
            assert_eq!(r.levels, reference.levels, "mask {mask:#b}, workers {w}");
            assert_eq!(r.instance.len(), reference.instance.len());
            assert!(instance_isomorphic(&r.instance, &reference.instance));
        }
    }
}
