//! The query evaluation facade: one documented entry point in front of the
//! compiled kernel.
//!
//! Three perf iterations left this crate with overlapping entry points —
//! [`crate::eval::evaluate_cq`] / [`crate::eval::evaluate_cq_par`], the
//! [`crate::hom::HomSearch`] wrapper, and the raw
//! [`crate::compile::KernelSearch`] builder. [`Engine::prepare`] is the one
//! route new code should take: it compiles the query once into a
//! [`PreparedQuery`], lets the caller configure execution (join
//! [`Strategy`], pool width, injectivity, an image restriction, tracing),
//! and evaluates against any number of instances. The legacy free functions
//! survive as thin delegating wrappers, so their behaviour — and every test
//! pinned to it — is unchanged.
//!
//! ```
//! use gtgd_data::{GroundAtom, Instance};
//! use gtgd_query::{parse_cq, Engine};
//!
//! let db = Instance::from_atoms([
//!     GroundAtom::named("E", &["a", "b"]),
//!     GroundAtom::named("E", &["b", "c"]),
//! ]);
//! let q = parse_cq("Q(X,Z) :- E(X,Y), E(Y,Z)").unwrap();
//! let answers = Engine::prepare(&q).answers(&db);
//! assert_eq!(answers.len(), 1);
//! ```

use crate::compile::{CompiledQuery, KernelSearch, Strategy};
use crate::cq::{Cq, Var};
use gtgd_data::{obs, Instance, Value};
use std::collections::HashSet;
use std::ops::ControlFlow;

/// One distinct answer tuple paired with a witnessing homomorphism: every
/// query variable (in the compiled plan's slot order) mapped to its image
/// under the witness that produced the tuple. Produced by
/// [`PreparedQuery::answer_witnesses`].
pub type AnswerWitness = (Vec<Value>, Vec<(Var, Value)>);

/// The facade over query compilation and execution. Stateless: it exists
/// so call sites read `Engine::prepare(&q)` instead of picking one of the
/// historical entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine;

impl Engine {
    /// Compiles `q` (answer variables interned, answer slots resolved) into
    /// a reusable [`PreparedQuery`] with default execution settings: the
    /// planner-chosen strategy, one worker, no injectivity, no image
    /// restriction, no tracing.
    pub fn prepare(q: &Cq) -> PreparedQuery {
        let plan = CompiledQuery::compile_with_extra(&q.atoms, q.answer_vars.iter().copied());
        let slots = q
            .answer_vars
            .iter()
            .map(|&v| plan.slot_of(v).expect("answer vars are interned"))
            .collect();
        PreparedQuery {
            plan,
            slots,
            arity: q.arity(),
            boolean: q.is_boolean(),
            strategy: None,
            workers: 1,
            injective: false,
            allowed: None,
            trace: false,
        }
    }
}

/// A compiled query plus its execution configuration. Built by
/// [`Engine::prepare`], evaluated by [`PreparedQuery::answers`] (or the
/// decision-form helpers); reusable across instances.
///
/// Preparation depends only on the query — evaluation borrows the
/// instance per call and captures nothing from it — so a prepared query
/// stays valid across arbitrary instance evolution, including the
/// insert/retract cycles of a maintained materialization
/// (`gtgd_chase::MaintainedInstance`): prepare once, re-evaluate after
/// every maintenance op.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    plan: CompiledQuery,
    slots: Vec<usize>,
    arity: usize,
    boolean: bool,
    strategy: Option<Strategy>,
    workers: usize,
    injective: bool,
    allowed: Option<HashSet<Value>>,
    trace: bool,
}

/// Answers plus the probe report of a traced evaluation.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The answer set, identical to [`PreparedQuery::answers`].
    pub answers: HashSet<Vec<Value>>,
    /// The run's probe report; `None` unless built with `.trace(true)`.
    pub report: Option<obs::RunReport>,
}

impl PreparedQuery {
    /// Overrides the join strategy (default: the compile-time planner
    /// gate picks backtracking or the worst-case-optimal executor).
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.strategy = Some(s);
        self
    }

    /// Evaluates on a `width`-wide worker pool (1 = sequential, the
    /// default). The answer *set* is width-independent.
    pub fn parallel(mut self, width: usize) -> Self {
        self.workers = width.max(1);
        self
    }

    /// Restricts to injective homomorphisms (distinct variables must map
    /// to distinct values).
    pub fn injective(mut self) -> Self {
        self.injective = true;
        self
    }

    /// Restricts variable images to `allowed` (e.g. `dom(D)` for
    /// closed-world certain-answer filtering).
    pub fn restrict_images(mut self, allowed: impl IntoIterator<Item = Value>) -> Self {
        self.allowed = Some(allowed.into_iter().collect());
        self
    }

    /// Enables probe collection for this query's runs: [`run`] returns a
    /// populated [`obs::RunReport`] covering kernel node visits, WCOJ
    /// seeks, dense dictionary activity, and pool utilization.
    ///
    /// [`run`]: PreparedQuery::run
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// The query's answer arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    fn kernel<'a>(&'a self, i: &'a Instance) -> KernelSearch<'a> {
        let mut k = self.plan.search(i);
        if let Some(s) = self.strategy {
            k = k.strategy(s);
        }
        if self.injective {
            k = k.injective();
        }
        if let Some(allowed) = &self.allowed {
            k = k.restrict_images(allowed);
        }
        k
    }

    fn answers_now(&self, i: &Instance) -> HashSet<Vec<Value>> {
        if self.workers > 1 {
            return self
                .kernel(i)
                .par_table(self.workers)
                .rows()
                .map(|row| self.slots.iter().map(|&s| row[s]).collect())
                .collect();
        }
        let mut out = HashSet::new();
        self.kernel(i).for_each_row(|row| {
            out.insert(self.slots.iter().map(|&s| row[s]).collect());
            ControlFlow::Continue(())
        });
        out
    }

    /// `q(I)`: the set of answers over `i`, under this configuration.
    /// Matches [`crate::eval::evaluate_cq`] (width 1) and
    /// [`crate::eval::evaluate_cq_par`] (width > 1) exactly.
    pub fn answers(&self, i: &Instance) -> HashSet<Vec<Value>> {
        self.answers_now(i)
    }

    /// Evaluates with probe collection if `.trace(true)` was set: the
    /// outcome carries the run's [`obs::RunReport`]. Without tracing this
    /// is [`PreparedQuery::answers`] with `report: None`.
    pub fn run(&self, i: &Instance) -> QueryOutcome {
        if self.trace {
            let (answers, report) = obs::trace_run(|| self.answers_now(i));
            QueryOutcome {
                answers,
                report: Some(report),
            }
        } else {
            QueryOutcome {
                answers: self.answers_now(i),
                report: None,
            }
        }
    }

    /// The distinct answers over `i`, each paired with one witnessing
    /// homomorphism: every query variable (in the plan's slot order)
    /// mapped to its image under the witness that first produced the
    /// tuple. Both join strategies emit the same shape — the kernel
    /// yields full slot rows and [`CompiledQuery::vars`] names the slots
    /// — so certificates built from either are interchangeable. The
    /// answer *set* equals [`PreparedQuery::answers`]; which witness
    /// backs a tuple is unspecified (any is equally valid evidence).
    pub fn answer_witnesses(&self, i: &Instance) -> Vec<AnswerWitness> {
        let vars = self.plan.vars();
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        let mut out: Vec<AnswerWitness> = Vec::new();
        let mut push = |row: &[Value]| {
            let answer: Vec<Value> = self.slots.iter().map(|&s| row[s]).collect();
            if seen.insert(answer.clone()) {
                let hom = vars.iter().copied().zip(row.iter().copied()).collect();
                out.push((answer, hom));
            }
        };
        if self.workers > 1 {
            for row in self.kernel(i).par_table(self.workers).rows() {
                push(row);
            }
        } else {
            self.kernel(i).for_each_row(|row| {
                push(row);
                ControlFlow::Continue(())
            });
        }
        out
    }

    /// Whether `answer ∈ q(I)` (the decision form; pins the answer slots
    /// and asks for one witness instead of enumerating).
    pub fn check(&self, i: &Instance, answer: &[Value]) -> bool {
        assert_eq!(answer.len(), self.arity, "candidate answer has wrong arity");
        self.kernel(i)
            .fix_slots(self.slots.iter().copied().zip(answer.iter().copied()))
            .exists()
    }

    /// Whether the (Boolean) query holds: `I |= q`.
    pub fn holds(&self, i: &Instance) -> bool {
        assert!(self.boolean, "holds requires a Boolean query");
        self.kernel(i).exists()
    }

    /// The number of homomorphisms (witnesses, not projected answers).
    pub fn count(&self, i: &Instance) -> usize {
        self.kernel(i).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate_cq, evaluate_cq_par};
    use crate::parser::parse_cq;
    use gtgd_data::GroundAtom;

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    fn cycle_db(n: usize) -> Instance {
        let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
        Instance::from_atoms(
            (0..n)
                .map(|i| GroundAtom::named("E", &[names[i].as_str(), names[(i + 1) % n].as_str()])),
        )
    }

    #[test]
    fn facade_matches_legacy_sequential_and_parallel() {
        let q = parse_cq("Q(X,Z) :- E(X,Y), E(Y,Z)").unwrap();
        let db = cycle_db(5);
        let prepared = Engine::prepare(&q);
        assert_eq!(prepared.answers(&db), evaluate_cq(&q, &db));
        for w in [2, 4] {
            assert_eq!(
                Engine::prepare(&q).parallel(w).answers(&db),
                evaluate_cq_par(&q, &db, w)
            );
        }
    }

    #[test]
    fn strategy_override_preserves_answers() {
        let q = parse_cq("Q(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X)").unwrap();
        let db = cycle_db(3);
        let base = Engine::prepare(&q).answers(&db);
        for s in [Strategy::Backtrack, Strategy::Wcoj] {
            assert_eq!(Engine::prepare(&q).strategy(s).answers(&db), base, "{s:?}");
        }
    }

    #[test]
    fn check_and_holds() {
        let q = parse_cq("Q(X,Z) :- E(X,Y), E(Y,Z)").unwrap();
        let db = cycle_db(4);
        let p = Engine::prepare(&q);
        assert!(p.check(&db, &[v("c0"), v("c2")]));
        assert!(!p.check(&db, &[v("c0"), v("c1")]));
        let b = parse_cq("Q() :- E(X,X)").unwrap();
        assert!(!Engine::prepare(&b).holds(&db));
    }

    #[test]
    fn injective_and_restricted_images() {
        let q = parse_cq("Q(X) :- E(X,Y), E(Y,Z)").unwrap();
        let mut db = cycle_db(3);
        db.insert(GroundAtom::named("E", &["c0", "c0"]));
        // Non-injective witness E(c0,c0),E(c0,c0) is excluded.
        let inj = Engine::prepare(&q).injective().answers(&db);
        assert!(inj.contains(&vec![v("c0")]));
        let none = Engine::prepare(&q).restrict_images([v("c0")]).answers(&db);
        assert_eq!(none, HashSet::from([vec![v("c0")]]));
    }

    #[test]
    fn answer_witnesses_cover_answers_with_valid_homs() {
        let q = parse_cq("Q(X,Z) :- E(X,Y), E(Y,Z)").unwrap();
        let db = cycle_db(5);
        for s in [Strategy::Backtrack, Strategy::Wcoj] {
            for w in [1, 3] {
                let p = Engine::prepare(&q).strategy(s).parallel(w);
                let witnesses = p.answer_witnesses(&db);
                let tuples: HashSet<Vec<Value>> =
                    witnesses.iter().map(|(a, _)| a.clone()).collect();
                assert_eq!(tuples, p.answers(&db), "{s:?} w={w}");
                assert_eq!(witnesses.len(), tuples.len(), "one witness per tuple");
                for (answer, hom) in &witnesses {
                    // The hom binds every query variable, and substituting
                    // it into each query atom lands on a database fact.
                    for atom in &q.atoms {
                        let ground = GroundAtom::new(
                            atom.predicate,
                            atom.args
                                .iter()
                                .map(|t| match *t {
                                    crate::cq::Term::Const(c) => c,
                                    crate::cq::Term::Var(v) => {
                                        hom.iter().find(|(u, _)| *u == v).expect("bound").1
                                    }
                                })
                                .collect(),
                        );
                        assert!(db.contains(&ground), "{s:?} w={w}");
                    }
                    // And it projects to the answer tuple.
                    for (i, &av) in q.answer_vars.iter().enumerate() {
                        let img = hom.iter().find(|(u, _)| *u == av).expect("bound").1;
                        assert_eq!(img, answer[i]);
                    }
                }
            }
        }
    }

    #[test]
    fn traced_run_reports_kernel_work() {
        let q = parse_cq("Q(X,Z) :- E(X,Y), E(Y,Z)").unwrap();
        let db = cycle_db(4);
        let out = Engine::prepare(&q).trace(true).run(&db);
        let report = out.report.expect("trace was requested");
        assert!(report.counter(obs::Metric::KernelNodes) > 0);
        assert_eq!(out.answers, evaluate_cq(&q, &db));
        // Untraced runs carry no report.
        assert!(Engine::prepare(&q).run(&db).report.is_none());
    }
}
