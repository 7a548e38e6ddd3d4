//! Differential testing of the compiled query kernel against the
//! *historical* generic backtracking `HomSearch` (PR 1 vintage), embedded
//! below as `reference`: on seeded random CQs × random instances × modes
//! (plain / injective / fixed bindings / restrict_images), the kernel — and
//! the `HomSearch` wrapper now built on it — must produce exactly the same
//! homomorphism *sets*, with `exists` / `count` / `first` agreeing, and the
//! parallel split (`par_table` / `par_all`) matching at widths 1, 2, and 4.

mod common;

use common::{arb_db, dom};
use gtgd::data::{Instance, Predicate, Rng, Value};
use gtgd::query::{CompiledQuery, HomSearch, QAtom, Term, Var};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

const WORKER_WIDTHS: [usize; 3] = [1, 2, 4];

/// The pre-kernel `HomSearch`: generic backtracking over `HashMap`
/// assignments with dynamic most-selective-atom ordering. Copied verbatim
/// (modulo visibility) from the engine this PR replaced, so the suite pins
/// today's kernel to yesterday's semantics.
mod reference {
    use super::*;

    pub struct RefSearch<'a> {
        atoms: &'a [QAtom],
        target: &'a Instance,
        pub fixed: HashMap<Var, Value>,
        pub injective: bool,
        pub allowed: Option<HashSet<Value>>,
    }

    impl<'a> RefSearch<'a> {
        pub fn new(atoms: &'a [QAtom], target: &'a Instance) -> Self {
            RefSearch {
                atoms,
                target,
                fixed: HashMap::new(),
                injective: false,
                allowed: None,
            }
        }

        pub fn all(&self) -> Vec<HashMap<Var, Value>> {
            let mut out = Vec::new();
            self.for_each(|h| {
                out.push(h.clone());
                ControlFlow::Continue(())
            });
            out
        }

        pub fn for_each(&self, mut f: impl FnMut(&HashMap<Var, Value>) -> ControlFlow<()>) -> bool {
            let mut assignment = self.fixed.clone();
            if self.injective {
                let mut used = HashSet::new();
                for &v in assignment.values() {
                    if !used.insert(v) {
                        return false;
                    }
                }
            }
            if let Some(allowed) = &self.allowed {
                if assignment.values().any(|v| !allowed.contains(v)) {
                    return false;
                }
            }
            let mut pending: Vec<usize> = (0..self.atoms.len()).collect();
            let mut used: HashSet<Value> = assignment.values().copied().collect();
            self.search(&mut pending, &mut assignment, &mut used, &mut f)
                .is_break()
        }

        fn candidates(&self, atom: &QAtom, assignment: &HashMap<Var, Value>) -> Vec<usize> {
            let mut best: Option<&[usize]> = None;
            for (pos, t) in atom.args.iter().enumerate() {
                let bound = match *t {
                    Term::Const(c) => Some(c),
                    Term::Var(v) => assignment.get(&v).copied(),
                };
                if let Some(val) = bound {
                    let ids = self.target.atoms_matching(atom.predicate, pos, val);
                    if best.is_none_or(|b| ids.len() < b.len()) {
                        best = Some(ids);
                    }
                }
            }
            best.unwrap_or_else(|| self.target.atoms_with_pred(atom.predicate))
                .to_vec()
        }

        fn search(
            &self,
            pending: &mut Vec<usize>,
            assignment: &mut HashMap<Var, Value>,
            used: &mut HashSet<Value>,
            f: &mut impl FnMut(&HashMap<Var, Value>) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            if pending.is_empty() {
                return f(assignment);
            }
            let (slot, _) = pending
                .iter()
                .enumerate()
                .map(|(slot, &ai)| (slot, self.candidates(&self.atoms[ai], assignment).len()))
                .min_by_key(|&(_, n)| n)
                .expect("pending nonempty");
            let ai = pending.swap_remove(slot);
            let atom = &self.atoms[ai];
            let cand = self.candidates(atom, assignment);
            for ci in cand {
                let ground = self.target.atom(ci);
                if ground.args.len() != atom.args.len() {
                    continue;
                }
                let mut newly: Vec<Var> = Vec::new();
                let mut ok = true;
                for (t, &gv) in atom.args.iter().zip(ground.args.iter()) {
                    match *t {
                        Term::Const(c) => {
                            if c != gv {
                                ok = false;
                                break;
                            }
                        }
                        Term::Var(v) => match assignment.get(&v) {
                            Some(&bound) => {
                                if bound != gv {
                                    ok = false;
                                    break;
                                }
                            }
                            None => {
                                if self.injective && used.contains(&gv) {
                                    ok = false;
                                    break;
                                }
                                if let Some(allowed) = &self.allowed {
                                    if !allowed.contains(&gv) {
                                        ok = false;
                                        break;
                                    }
                                }
                                assignment.insert(v, gv);
                                used.insert(gv);
                                newly.push(v);
                            }
                        },
                    }
                }
                if ok && self.search(pending, assignment, used, f).is_break() {
                    return ControlFlow::Break(());
                }
                for v in newly {
                    let val = assignment.remove(&v).expect("was bound");
                    used.remove(&val);
                }
            }
            pending.push(ai);
            let last = pending.len() - 1;
            pending.swap(slot, last);
            ControlFlow::Continue(())
        }
    }
}

/// Random CQ body over the same schema: 1–4 atoms, variables X0..X4,
/// occasional constants and repeated variables.
fn arb_atoms(rng: &mut Rng) -> Vec<QAtom> {
    let d = dom();
    let term = |rng: &mut Rng| -> Term {
        if rng.chance(0.2) {
            Term::Const(d[rng.below(4) as usize])
        } else {
            Term::Var(Var(rng.below(5) as u32))
        }
    };
    let n = 1 + rng.below(4) as usize;
    (0..n)
        .map(|_| match rng.below(4) {
            0 => QAtom::new(Predicate::new("U"), vec![term(rng)]),
            1 => QAtom::new(Predicate::new("E"), vec![term(rng), term(rng)]),
            2 => QAtom::new(Predicate::new("R"), vec![term(rng), term(rng)]),
            _ => QAtom::new(Predicate::new("T"), vec![term(rng), term(rng), term(rng)]),
        })
        .collect()
}

/// Canonical form of a homomorphism set: sorted vectors of sorted pairs.
fn canon(homs: &[HashMap<Var, Value>]) -> Vec<Vec<(Var, Value)>> {
    let mut out: Vec<Vec<(Var, Value)>> = homs
        .iter()
        .map(|h| {
            let mut kv: Vec<(Var, Value)> = h.iter().map(|(&k, &v)| (k, v)).collect();
            kv.sort_unstable();
            kv
        })
        .collect();
    out.sort();
    out
}

/// One differential case: reference vs wrapper vs raw kernel vs parallel.
fn check_case(
    atoms: &[QAtom],
    db: &Instance,
    fixed: &[(Var, Value)],
    injective: bool,
    allowed: Option<&HashSet<Value>>,
    ctx: &str,
) {
    let mut reference = reference::RefSearch::new(atoms, db);
    reference.fixed = fixed.iter().copied().collect();
    reference.injective = injective;
    reference.allowed = allowed.cloned();
    let expected = canon(&reference.all());

    // The HomSearch wrapper (now kernel-backed).
    let wrapper = || {
        let mut s = HomSearch::new(atoms, db).fix(fixed.iter().copied());
        if injective {
            s = s.injective();
        }
        if let Some(a) = allowed {
            s = s.restrict_images(a.clone());
        }
        s
    };
    assert_eq!(canon(&wrapper().all()), expected, "all() {ctx}");
    assert_eq!(wrapper().count(), expected.len(), "count() {ctx}");
    assert_eq!(wrapper().exists(), !expected.is_empty(), "exists() {ctx}");
    match wrapper().first() {
        Some(h) => assert!(
            expected.contains(&canon(&[h])[0]),
            "first() not in reference set {ctx}"
        ),
        None => assert!(expected.is_empty(), "first() missed a hom {ctx}"),
    }

    // The raw kernel, driven directly.
    let plan = CompiledQuery::compile_with_extra(atoms, fixed.iter().map(|&(v, _)| v));
    let kernel = || {
        let mut k = plan
            .search(db)
            .fix_slots(fixed.iter().map(|&(v, x)| (plan.slot_of(v).unwrap(), x)));
        if injective {
            k = k.injective();
        }
        if let Some(a) = allowed {
            k = k.restrict_images(a);
        }
        k
    };
    assert_eq!(
        canon(&kernel().table().to_maps()),
        expected,
        "table() {ctx}"
    );
    for w in WORKER_WIDTHS {
        assert_eq!(
            canon(&kernel().par_table(w).to_maps()),
            expected,
            "par_table({w}) {ctx}"
        );
        assert_eq!(canon(&wrapper().par_all(w)), expected, "par_all({w}) {ctx}");
    }
}

#[test]
fn kernel_matches_reference_plain_and_modes() {
    let mut rng = Rng::seed(0x5eed_cafe);
    let d = dom();
    for case in 0..160u32 {
        let db = arb_db(&mut rng);
        let atoms = arb_atoms(&mut rng);
        let injective = rng.chance(0.34);
        let restrict = rng.chance(0.34);
        let allowed: Option<HashSet<Value>> = restrict.then(|| {
            d.iter()
                .copied()
                .filter(|_| rng.chance(0.67))
                .collect::<HashSet<Value>>()
        });
        let mut fixed: Vec<(Var, Value)> = Vec::new();
        if rng.chance(0.5) {
            // Fix 1–2 variables, sometimes a ghost var absent from atoms.
            for _ in 0..=rng.below(2) {
                let v = if rng.chance(0.17) {
                    Var(40 + rng.below(2) as u32)
                } else {
                    Var(rng.below(5) as u32)
                };
                let x = d[rng.below(4) as usize];
                if fixed.iter().all(|&(u, _)| u != v) {
                    fixed.push((v, x));
                }
            }
        }
        let ctx = format!(
            "case {case}: {} atoms, inj={injective}, fixed={}, allowed={}",
            atoms.len(),
            fixed.len(),
            allowed.is_some()
        );
        check_case(&atoms, &db, &fixed, injective, allowed.as_ref(), &ctx);
    }
}

#[test]
fn kernel_matches_reference_on_edge_shapes() {
    let db = arb_db(&mut Rng::seed(7));
    let d = dom();
    // Empty atom list, with and without fixed bindings.
    check_case(&[], &db, &[], false, None, "empty atoms");
    check_case(&[], &db, &[(Var(3), d[0])], true, None, "empty atoms + fix");
    // Duplicate fixed values under injectivity: both engines yield nothing.
    check_case(
        &[QAtom::new(
            Predicate::new("E"),
            vec![Term::Var(Var(0)), Term::Var(Var(1))],
        )],
        &db,
        &[(Var(0), d[1]), (Var(1), d[1])],
        true,
        None,
        "duplicate fixed + injective",
    );
    // Unsatisfiable constant.
    check_case(
        &[QAtom::new(
            Predicate::new("U"),
            vec![Term::Const(Value::named("zz"))],
        )],
        &db,
        &[],
        false,
        None,
        "foreign constant",
    );
    // Empty allowed set.
    check_case(
        &[QAtom::new(
            Predicate::new("E"),
            vec![Term::Var(Var(0)), Term::Var(Var(1))],
        )],
        &db,
        &[],
        false,
        Some(&HashSet::new()),
        "empty allowed set",
    );
}
