//! Differential testing of proof-carrying answers: on randomized guarded
//! TGD sets and databases, every null-free answer reported by every
//! {chase engine} × {join strategy} combination must round-trip through a
//! certificate the *independent* checker (`gtgd-check`, which shares no
//! code with the engines) accepts. This is a strictly stronger oracle
//! than the answer-set comparisons of the other differential suites:
//! equality of two engines' answers cannot catch a shared bug, but a
//! fail-closed replay from the stated facts can.
//!
//! The suite also pins the cross-engine contract: certificates produced
//! by different engines for the same case state the identical fact base
//! (sorted database atoms), so a certificate is evidence about the
//! *database*, not about which engine happened to produce it.

mod common;

use common::{arb_guarded_db, guarded_rule_pool, sigma_for_mask};
use gtgd::chase::{CertificateStore, ChaseBudget, ChaseRunner, ChaseVariant};
use gtgd::data::Rng;
use gtgd::query::{parse_cq, Cq, Strategy};

const WORKER_WIDTHS: [usize; 3] = [1, 2, 4];

fn query_pool() -> Vec<Cq> {
    vec![
        parse_cq("Q(X) :- A(X)").unwrap(),
        parse_cq("Q(X) :- B(X)").unwrap(),
        parse_cq("Q(X) :- R(X,Y), S(Y,Z)").unwrap(),
        parse_cq("Q(X,Y) :- S(X,Y), A(X)").unwrap(),
    ]
}

/// Every engine configuration the suite certifies under: the sequential
/// oblivious chase, the parallel oblivious chase at three widths, and
/// the restricted chase.
fn engine_configs() -> Vec<(String, ChaseVariant, usize)> {
    let mut configs = vec![("oblivious".to_string(), ChaseVariant::Oblivious, 1)];
    for w in WORKER_WIDTHS {
        configs.push((format!("par w={w}"), ChaseVariant::Oblivious, w));
    }
    configs.push(("restricted".to_string(), ChaseVariant::Restricted, 1));
    configs
}

/// 160 seeded cases × 5 engine configurations × both join strategies:
/// every null-free answer yields a checker-accepted certificate, and all
/// configurations state the same fact base.
#[test]
fn every_answer_round_trips_through_an_accepted_certificate() {
    let pool = guarded_rule_pool();
    let queries = query_pool();
    // Some rule subsets diverge; a levels cap bounds every engine — the
    // restricted chase included, which tracks per-atom derivation depth.
    // Certification is sound over any budget-truncated prefix, so stopping
    // early loses nothing.
    let budget = ChaseBudget::levels(4);
    let mut checked = 0usize;
    for case in 0u64..160 {
        let mask = (case % 128) as u8;
        let mut rng = Rng::seed(0xCE47 ^ case);
        let d = arb_guarded_db(&mut rng, 9);
        let sigma = sigma_for_mask(&pool, mask);
        let mut fact_sections: Vec<String> = Vec::new();
        for (name, variant, workers) in engine_configs() {
            let outcome = ChaseRunner::new(&sigma)
                .variant(variant)
                .workers(workers)
                .budget(budget)
                .certify(true)
                .run(&d);
            let firings = outcome.firings.expect("certified run records firings");
            let store = CertificateStore::new(&d, &sigma, firings);
            for q in &queries {
                for strategy in [Strategy::Backtrack, Strategy::Wcoj] {
                    let certs = store.certify_answers(q, &outcome.instance, strategy);
                    // The engine's own answer view: certify_answers must
                    // cover exactly the null-free answers.
                    let null_free = gtgd::query::Engine::prepare(q)
                        .strategy(strategy)
                        .answers(&outcome.instance)
                        .into_iter()
                        .filter(|t| t.iter().all(|v| v.is_named()))
                        .count();
                    assert_eq!(
                        certs.len(),
                        null_free,
                        "case {case} {name} {strategy:?} {q}: missing certificates"
                    );
                    for cert in &certs {
                        let json = cert.to_json();
                        let parsed =
                            gtgd_check::Certificate::from_json(&json).unwrap_or_else(|e| {
                                panic!("case {case} {name} {strategy:?}: unparsable: {e}")
                            });
                        if let Err(e) = gtgd_check::check(&parsed) {
                            panic!("case {case} {name} {strategy:?} {q}: rejected: {e}\n{json}");
                        }
                        fact_sections.push(
                            json.split("\"tgds\"")
                                .next()
                                .expect("facts prefix")
                                .to_string(),
                        );
                        checked += 1;
                    }
                }
            }
        }
        // Same case ⇒ same stated fact base, whatever engine or strategy
        // produced the certificate.
        if let Some(first) = fact_sections.first() {
            assert!(
                fact_sections.iter().all(|s| s == first),
                "case {case}: fact bases differ across engines"
            );
        }
    }
    assert!(
        checked > 1000,
        "suite must exercise a meaningful number of certificates, got {checked}"
    );
}

/// The batch forms round-trip too: a whole case's certificates serialized
/// as one array are accepted wholesale by the checker's batch entry point.
#[test]
fn certificate_batches_round_trip() {
    let pool = guarded_rule_pool();
    let budget = ChaseBudget {
        max_level: Some(4),
        max_atoms: Some(2_000),
    };
    for case in [3u64, 41, 77, 123] {
        let mask = (case % 128) as u8;
        let mut rng = Rng::seed(0xCE47 ^ case);
        let d = arb_guarded_db(&mut rng, 9);
        let sigma = sigma_for_mask(&pool, mask);
        let outcome = ChaseRunner::new(&sigma)
            .budget(budget)
            .certify(true)
            .run(&d);
        let store = CertificateStore::new(&d, &sigma, outcome.firings.unwrap());
        let mut certs = Vec::new();
        for q in query_pool() {
            certs.extend(store.certify_answers(&q, &outcome.instance, Strategy::Backtrack));
        }
        let json = gtgd::chase::certificates_to_json(&certs);
        assert_eq!(gtgd_check::check_all(&json), Ok(certs.len()), "case {case}");
    }
}
