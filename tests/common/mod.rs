//! Seeded generators shared by the differential suites. Each suite that
//! uses them declares `mod common;`; a suite uses only some of them, so
//! unused-item warnings are allowed here.
#![allow(dead_code)]

use gtgd::chase::{parse_tgds, Tgd};
use gtgd::data::{GroundAtom, Instance, Predicate, Rng, Value};
use gtgd::query::{QAtom, Term, Var};

/// 4-value domain shared by the join suites' random instances.
pub fn dom() -> Vec<Value> {
    ["a", "b", "c", "d"]
        .iter()
        .map(|s| Value::named(s))
        .collect()
}

/// Random instance over unary `U`, binary `E`/`R`, ternary `T`.
pub fn arb_db(rng: &mut Rng) -> Instance {
    let d = dom();
    let pick = |rng: &mut Rng| d[rng.below(4) as usize];
    let mut i = Instance::new();
    let n_atoms = 3 + rng.below(18) as usize;
    for _ in 0..n_atoms {
        let (p, args) = match rng.below(4) {
            0 => ("U", vec![pick(rng)]),
            1 => ("E", vec![pick(rng), pick(rng)]),
            2 => ("R", vec![pick(rng), pick(rng)]),
            _ => ("T", vec![pick(rng), pick(rng), pick(rng)]),
        };
        i.insert(GroundAtom::new(Predicate::new(p), args));
    }
    i
}

/// Random CQ body biased toward *joins*: 2–5 atoms over few variables
/// (X0..X3), so cyclic shapes — the ones the WCOJ gate actually routes —
/// come up often; occasional constants and repeated variables.
pub fn arb_atoms(rng: &mut Rng) -> Vec<QAtom> {
    let d = dom();
    let term = |rng: &mut Rng| -> Term {
        if rng.chance(0.15) {
            Term::Const(d[rng.below(4) as usize])
        } else {
            Term::Var(Var(rng.below(4) as u32))
        }
    };
    let n = 2 + rng.below(4) as usize;
    (0..n)
        .map(|_| match rng.below(5) {
            0 => QAtom::new(Predicate::new("U"), vec![term(rng)]),
            1 | 2 => QAtom::new(Predicate::new("E"), vec![term(rng), term(rng)]),
            3 => QAtom::new(Predicate::new("R"), vec![term(rng), term(rng)]),
            _ => QAtom::new(Predicate::new("T"), vec![term(rng), term(rng), term(rng)]),
        })
        .collect()
}

/// Canonical form of an answer table: sorted rows (slot order is shared
/// by every strategy over one plan, so rows compare positionally).
pub fn canon_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// The query atom `E(x, y)`.
pub fn e(x: Term, y: Term) -> QAtom {
    QAtom::new(Predicate::new("E"), vec![x, y])
}

/// The query variable `X<i>`.
pub fn v(i: u32) -> Term {
    Term::Var(Var(i))
}

/// A pool of guarded rule templates over predicates A/B (unary), R/S
/// (binary): every subset is a guarded, constant-free Σ mixing full and
/// existential rules.
pub fn guarded_rule_pool() -> Vec<Tgd> {
    parse_tgds(
        "A(X) -> B(X). \
         B(X) -> R(X,Y). \
         R(X,Y) -> S(Y,X). \
         R(X,Y), A(X) -> B(Y). \
         S(X,Y) -> A(X). \
         R(X,Y), B(Y) -> S(X,X). \
         B(X) -> A(X)",
    )
    .unwrap()
}

/// The rules of `pool` selected by the bits of `mask`.
pub fn sigma_for_mask(pool: &[Tgd], mask: u8) -> Vec<Tgd> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, t)| t.clone())
        .collect()
}

/// A random database over A/R/S with a 4-element domain and between 1
/// and `max_atoms - 1` atoms.
pub fn arb_guarded_db(rng: &mut Rng, max_atoms: usize) -> Instance {
    let k = rng.range(1, max_atoms);
    Instance::from_atoms((0..k).map(|_| {
        let kind = rng.range(0, 3);
        let (a, b) = (rng.range(0, 4), rng.range(0, 4));
        match kind {
            0 => GroundAtom::named("A", &[&format!("c{a}")]),
            1 => GroundAtom::named("R", &[&format!("c{a}"), &format!("c{b}")]),
            _ => GroundAtom::named("S", &[&format!("c{a}"), &format!("c{b}")]),
        }
    }))
}
