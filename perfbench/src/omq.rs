//! The omq family: the paper's own algorithms, alternating two ops:
//!
//! * `open` — `check_omq_fpt`, the Prop 3.3(3) FPT pipeline (typed chase,
//!   then the tree-decomposition DP), for the E3 (G, UCQ_1) OMQ over
//!   `org_db(100)`, the candidate answer rotating over a seeded pool from
//!   the database's domain;
//! * `closed` — `Cqs::evaluate` of the 4-clique CQS
//!   (Σ = `E(X,Y) → Node(X), Node(Y)`) over seeded `random_graph(120, 0.3)`
//!   instances, each with a planted 4-clique; every op gets a fresh graph
//!   (built outside the timed region), so the median spans many graphs.
//!   Each graph's bipartite subgraph, which has no 4-clique, is evaluated
//!   untimed as a negative control, so an evaluator that always says yes
//!   fails the check.

use crate::common::{mix, timed, traced, Layers, Report, Samples};
use gtgd_bench::workloads::{graph_db, org_db, org_ontology, random_graph};
use gtgd_chase::parse_tgds;
use gtgd_core::eval::materialize_chase;
use gtgd_core::{check_omq, check_omq_fpt, Cqs, EvalConfig, Omq};
use gtgd_data::obs::Metric;
use gtgd_data::{GroundAtom, Instance, Rng, Value};
use gtgd_query::decomp_eval::check_answer_ucq_decomposed;
use gtgd_query::{evaluate_ucq, parse_ucq};
use std::collections::{HashMap, HashSet};

/// The E3 OMQ's query.
pub const E3_QUERY: &str = "Q(X) :- Emp(X), WorksIn(X,D), HasMgr(D,M)";
/// The Boolean 4-clique over a symmetric edge relation.
pub const CLIQUE_QUERY: &str = "Q() :- E(A,B), E(A,C), E(A,D), E(B,C), E(B,D), E(C,D)";

pub struct OmqEval {
    omq: Omq,
    cfg: EvalConfig,
    db: Instance,
    candidates: Vec<Value>,
    /// `check_omq` verdicts (the generic pipeline), the oracle for `open`.
    oracle: HashMap<Value, bool>,
    cqs: Cqs,
    seed: u64,
    cycles: u64,
    open: Samples,
    closed: Samples,
    layers: Layers,
    open_traced: Samples,
    closed_traced: Samples,
}

/// Candidates per run: employees, for which `Q` holds, and departments,
/// for which it does not. A small pool keeps the `check_omq` oracle, one
/// call per distinct candidate, cheap.
const EMPLOYEES: usize = 13;
const DEPARTMENTS: usize = 3;

/// A seeded pool of candidate answers from the domain of `org_db`, in a
/// seeded order.
fn candidate_pool(db: &Instance, rng: &mut Rng) -> Vec<Value> {
    let mut dom: Vec<Value> = db.dom().to_vec();
    dom.sort();
    let mut draw = |prefix: char, n: usize| {
        let mut of: Vec<Value> = dom
            .iter()
            .copied()
            .filter(|v| v.to_string().starts_with(prefix))
            .collect();
        (0..n.min(of.len()))
            .map(|_| of.swap_remove(rng.below(of.len() as u64) as usize))
            .collect::<Vec<_>>()
    };
    let mut pool = draw('e', EMPLOYEES);
    pool.extend(draw('d', DEPARTMENTS));
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i as u64 + 1) as usize);
    }
    pool
}

/// A `random_graph(120, 0.3)` instance with a planted 4-clique, and its
/// bipartite subgraph (the edges between even and odd vertices), which has
/// no triangle and so no 4-clique: the positive instance and the negative
/// control. Each is the symmetric `E` relation plus `Node(v)` for every
/// vertex, so `D |= Σ`.
fn clique_instances(seed: u64) -> Result<(Instance, Instance), String> {
    let mut g = random_graph(120, 0.3, seed);
    let mut rng = Rng::seed(mix(seed, 0xc1));
    let mut planted: Vec<usize> = Vec::new();
    while planted.len() < 4 {
        let v = rng.range(0, 120);
        if !planted.contains(&v) {
            planted.push(v);
        }
    }
    g.make_clique(&planted);
    let edge = |u: usize, v: usize| GroundAtom::named("E", &[&format!("v{u}"), &format!("v{v}")]);
    let nodes = || (0..120).map(|v| GroundAtom::named("Node", &[&format!("v{v}")]));
    let mut atoms: Vec<GroundAtom> = graph_db(&g).iter().cloned().collect();
    atoms.extend(nodes());
    let db = Instance::from_atoms(atoms);
    for &u in &planted {
        for &v in &planted {
            if u != v && !db.contains(&edge(u, v)) {
                return Err(format!("planted edge v{u}-v{v} missing"));
            }
        }
    }
    let bipartite = g
        .edges()
        .filter(|&(u, v)| u % 2 != v % 2)
        .flat_map(|(u, v)| [edge(u, v), edge(v, u)]);
    let control = Instance::from_atoms(bipartite.chain(nodes()));
    Ok((db, control))
}

impl OmqEval {
    pub fn setup(seed: u64, report: &mut Report) -> Result<OmqEval, String> {
        let omq = Omq::full_schema(
            org_ontology(),
            parse_ucq(E3_QUERY).map_err(|e| e.to_string())?,
        );
        let db = org_db(100);
        let candidates = candidate_pool(&db, &mut Rng::seed(mix(seed, 0x0e)));
        let sigma = parse_tgds("E(X,Y) -> Node(X), Node(Y)").map_err(|e| e.to_string())?;
        let cqs = Cqs::new(sigma, parse_ucq(CLIQUE_QUERY).map_err(|e| e.to_string())?);
        let (graph, control) = clique_instances(mix(seed, 0x100))?;
        report
            .exact
            .insert("omq.graph_atoms".into(), graph.len() as u64);
        report
            .exact
            .insert("omq.control_atoms".into(), control.len() as u64);
        report
            .exact
            .insert("omq.candidates".into(), candidates.len() as u64);
        let mut bench = OmqEval {
            omq,
            cfg: EvalConfig::default(),
            db,
            candidates,
            oracle: HashMap::new(),
            cqs,
            seed,
            cycles: 0,
            open: Samples::default(),
            closed: Samples::default(),
            layers: Layers::default(),
            open_traced: Samples::default(),
            closed_traced: Samples::default(),
        };
        // Warm-up: one op of each kind, checked.
        let (holds, exact) =
            check_omq_fpt(&bench.omq, &bench.db, &[bench.candidates[0]], &bench.cfg);
        if !exact || holds != bench.expected(bench.candidates[0]) {
            return Err("warm-up: open verdict differs from check_omq".to_owned());
        }
        if bench.cqs.evaluate(&graph).ok().map(|a| a.len()) != Some(1) {
            return Err("warm-up: closed verdict misses the planted clique".to_owned());
        }
        if bench.cqs.evaluate(&control).ok().map(|a| a.len()) != Some(0) {
            return Err("warm-up: closed verdict finds a 4-clique in a bipartite graph".to_owned());
        }
        Ok(bench)
    }

    /// The generic pipeline's verdict for `candidate`, computed once.
    fn expected(&mut self, candidate: Value) -> bool {
        let (omq, db, cfg) = (&self.omq, &self.db, &self.cfg);
        *self
            .oracle
            .entry(candidate)
            .or_insert_with(|| check_omq(omq, db, &[candidate], cfg).0)
    }

    /// One cycle: `open` then `closed`. In a traced run every other cycle
    /// goes through the layers one call at a time with the probes on.
    pub fn step(&mut self, trace: bool, report: &mut Report) {
        let cand = self.candidates[self.cycles as usize % self.candidates.len()];
        let g = mix(self.seed, 0x100 + self.cycles);
        self.cycles += 1;
        let traced_cycle = trace && self.cycles.is_multiple_of(2);
        let (open_ms, (holds, exact)) = if traced_cycle {
            self.traced_open(cand)
        } else {
            timed(|| check_omq_fpt(&self.omq, &self.db, &[cand], &self.cfg))
        };
        let want = self.expected(cand);
        report.check(exact && holds == want, || {
            format!("open {cand}: FPT says {holds} (exact {exact}), check_omq says {want}")
        });
        let (graph, control) = match clique_instances(g) {
            Ok(graphs) => graphs,
            Err(e) => return report.check(false, || format!("closed graph {g}: {e}")),
        };
        let (closed_ms, answers) = if traced_cycle {
            self.traced_closed(&graph)
        } else {
            let (ms, r) = timed(|| self.cqs.evaluate(&graph));
            (ms, r.ok())
        };
        report.check(answers.is_some_and(|a| a.len() == 1), || {
            format!("closed graph {g}: the planted 4-clique was not found")
        });
        let control_answers = self.cqs.evaluate(&control).ok();
        report.check(control_answers.is_some_and(|a| a.is_empty()), || {
            format!("closed graph {g}: a 4-clique was found in its bipartite subgraph")
        });
        let (open, closed) = if traced_cycle {
            (&mut self.open_traced, &mut self.closed_traced)
        } else {
            (&mut self.open, &mut self.closed)
        };
        open.push(open_ms);
        closed.push(closed_ms);
    }

    pub fn finish(&self, trace: bool, report: &mut Report) {
        report.record_samples("open", &self.open);
        report.record_samples("closed", &self.closed);
        if !trace {
            let open = self.open.fast_quarter_mean();
            report.adjusted("open_fast25_ms", open, "ms");
            let closed = self.closed.fast_quarter_mean();
            report.adjusted("closed_fast25_ms", closed, "ms");
            return;
        }
        let layers = &self.layers;
        layers.report("omq", report);
        let (open, closed) = (self.open.median(), self.closed.median());
        report.coverage("omq.open.coverage", layers.median("open.coverage"));
        report.coverage("omq.closed.coverage", layers.median("closed.coverage"));
        let overhead = |traced: &Samples, plain: f64| traced.median() / plain;
        report.metric(
            "omq.open.trace_overhead_ratio",
            overhead(&self.open_traced, open),
            "ratio",
        );
        report.metric(
            "omq.closed.trace_overhead_ratio",
            overhead(&self.closed_traced, closed),
            "ratio",
        );
    }

    /// `check_omq_fpt` one layer at a time: the program's own
    /// `materialize_chase` (the typed chase for this guarded OMQ), then the
    /// DP.
    fn traced_open(&mut self, cand: Value) -> (f64, (bool, bool)) {
        let (omq, db, cfg, layers) = (&self.omq, &self.db, &self.cfg, &mut self.layers);
        let (ms, out, rep) = traced(|| {
            let (chase_ms, (instance, exact)) = timed(|| materialize_chase(omq, db, cfg));
            let (check_ms, holds) =
                timed(|| check_answer_ucq_decomposed(&omq.query, &instance, &[cand]));
            layers.add("chase.typed_chase_ms", chase_ms, "ms");
            layers.add("query.decomp_check_ms", check_ms, "ms");
            ((holds, exact), chase_ms + check_ms)
        });
        let (out, layer_ms) = out;
        layers.add("open.coverage", layer_ms / ms, "ratio");
        layers.count("saturator.bag_closures", &rep, Metric::BagClosures);
        layers.count("saturator.memo_hits", &rep, Metric::BagClosureMemoHits);
        layers.count("decomp.bag_checks", &rep, Metric::DecompBagChecks);
        (ms, out)
    }

    /// `Cqs::evaluate` one layer at a time: the promise check, then the
    /// UCQ evaluation.
    fn traced_closed(&mut self, db: &Instance) -> (f64, Option<HashSet<Vec<Value>>>) {
        let (cqs, layers) = (&self.cqs, &mut self.layers);
        let (ms, out, rep) = traced(|| {
            let (promise_ms, promise) = timed(|| cqs.check_promise(db));
            let (eval_ms, answers) = timed(|| evaluate_ucq(&cqs.query, db));
            layers.add("core.promise_check_ms", promise_ms, "ms");
            layers.add("query.ucq_eval_ms", eval_ms, "ms");
            (promise.ok().map(|()| answers), promise_ms + eval_ms)
        });
        let (out, layer_ms) = out;
        layers.add("closed.coverage", layer_ms / ms, "ratio");
        layers.count("wcoj.seeks", &rep, Metric::WcojSeeks);
        layers.count("wcoj.gallop_steps", &rep, Metric::WcojGallopSteps);
        (ms, out)
    }
}
