//! Before/after benchmark for the worst-case-optimal join path
//! (`BENCH_wcoj.json`).
//!
//! Unlike the kernel report, which compares against frozen seed-commit
//! baselines, both sides here are measured *live* on the same build: the
//! same `CompiledQuery` is forced onto `Strategy::Backtrack` and
//! `Strategy::Wcoj` (see `gtgd_query::compile`), so the delta isolates the
//! executor. The workloads are the cyclic shapes the WCOJ gate exists for:
//! the E10 fixed 13-vertex clique series, the E4 clique→CQS reduction, and
//! a triangle-count microbench. Each row also records which strategy the
//! planner would pick on its own (`Strategy::Auto`) and that both
//! executors returned the same answer count. The leapfrog side runs over
//! dense dictionary codes, its one key representation (`dense_ms`).

use crate::experiments::bench_ms;
use crate::json::escape;
use crate::workloads::{clique_cq, graph_db, plant_clique, random_graph};
use gtgd_core::{clique_to_cqs_instance, grid_cqs_family};
use gtgd_data::Instance;
use gtgd_query::{CompiledQuery, Strategy};

/// Worker widths of the morsel-scaling column.
const SCALING_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// One live before/after measurement for a single workload.
#[derive(Debug, Clone)]
pub struct WcojMetric {
    /// Workload label (experiment id + parameters).
    pub workload: String,
    /// Answer-enumeration time in ms under the forced backtracker.
    pub backtrack_ms: f64,
    /// Same workload, same plan, forced leapfrog executor over dense
    /// dictionary codes.
    pub dense_ms: f64,
    /// What `Strategy::Auto` picks for this plan (`"wcoj"` / `"backtrack"`).
    pub planner: String,
    /// Answer count (identical under both executors by assertion).
    pub answers: usize,
    /// Whether both executors agreed exactly.
    pub answers_agree: bool,
    /// Morsel-parallel dense enumeration per width: `(workers, Some(ms))`
    /// when measured, `(workers, None)` when skipped because the host has
    /// one core (widths > 1 would time-slice a single CPU and report
    /// scheduling overhead as a slowdown). Empty for workloads measured
    /// through an aggregate (E4).
    pub scaling: Vec<(usize, Option<f64>)>,
}

/// Which scaling widths actually measure on a host with `cores` CPUs:
/// `(width, measured)`. Width 1 always runs; wider morsel teams are
/// meaningless on a single core — the numbers would read as parallel
/// slowdowns while measuring nothing but the scheduler — so they are
/// skipped, and [`wcoj_json`] records the reason instead of a bogus time.
pub fn scaling_plan(cores: usize) -> Vec<(usize, bool)> {
    SCALING_WIDTHS
        .iter()
        .map(|&w| (w, w == 1 || cores > 1))
        .collect()
}

impl WcojMetric {
    /// Speedup factor `backtrack / dense` (∞-safe: 0 if `dense_ms` is 0).
    pub fn speedup(&self) -> f64 {
        if self.dense_ms > 0.0 {
            self.backtrack_ms / self.dense_ms
        } else {
            0.0
        }
    }
}

fn planner_label(plan: &CompiledQuery) -> String {
    if plan.prefers_wcoj() {
        "wcoj"
    } else {
        "backtrack"
    }
    .to_string()
}

/// Measures full answer enumeration of one compiled plan under both forced
/// strategies, plus the morsel-parallel leapfrog path at each scaling
/// width.
fn measure(workload: String, plan: &CompiledQuery, db: &Instance) -> WcojMetric {
    let count = |s: Strategy| plan.search(db).strategy(s).count();
    let backtrack_ms = bench_ms(|| count(Strategy::Backtrack));
    let dense_ms = bench_ms(|| count(Strategy::Wcoj));
    let n_bt = count(Strategy::Backtrack);
    let n_dn = count(Strategy::Wcoj);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scaling = scaling_plan(cores)
        .into_iter()
        .map(|(w, run)| {
            let ms = run.then(|| {
                bench_ms(|| {
                    let t = plan.search(db).strategy(Strategy::Wcoj).par_table(w);
                    assert_eq!(t.len(), n_dn, "parallel row count at width {w}");
                    t.len()
                })
            });
            (w, ms)
        })
        .collect();
    WcojMetric {
        workload,
        backtrack_ms,
        dense_ms,
        planner: planner_label(plan),
        answers: n_dn,
        answers_agree: n_bt == n_dn,
        scaling,
    }
}

/// The E10 clique series on its fixed workload: `random_graph(13, 0.5, 97)`
/// with a planted 5-clique, enumerating all `k`-clique homomorphisms for
/// `k = 2..5`.
pub fn e10_clique_metrics() -> Vec<WcojMetric> {
    let g = {
        let mut g = random_graph(13, 0.5, 97);
        plant_clique(&mut g, 5, 13);
        g
    };
    let db = graph_db(&g);
    [2usize, 3, 4, 5]
        .iter()
        .map(|&k| {
            let plan = CompiledQuery::compile(&clique_cq(k).atoms);
            measure(format!("E10 clique k={k} (13 vertices)"), &plan, &db)
        })
        .collect()
}

/// The E4 reduction workload: the grid-CQS family evaluated over the
/// reduced database `D*` of a 10-vertex graph with a planted `k`-clique.
/// Boolean UCQ evaluation is a disjunct sweep; the measured quantity is
/// the total answer enumeration over all disjuncts (the work the boolean
/// check bounds).
pub fn e4_reduction_metrics() -> Vec<WcojMetric> {
    let mut out = Vec::new();
    for &k in &[2usize, 3] {
        let fam = grid_cqs_family(k);
        let mut g = random_graph(10, 0.5, 11 + 10u64);
        plant_clique(&mut g, k, 5);
        let reduced = clique_to_cqs_instance(&g, k, &fam);
        let db = &reduced.grohe.instance;
        let plans: Vec<CompiledQuery> = fam
            .cqs
            .query
            .disjuncts
            .iter()
            .map(|cq| CompiledQuery::compile(&cq.atoms))
            .collect();
        let total =
            |s: Strategy| -> usize { plans.iter().map(|p| p.search(db).strategy(s).count()).sum() };
        let backtrack_ms = bench_ms(|| total(Strategy::Backtrack));
        let dense_ms = bench_ms(|| total(Strategy::Wcoj));
        let n_bt = total(Strategy::Backtrack);
        let n_dn = total(Strategy::Wcoj);
        let planner = if plans.iter().all(|p| p.prefers_wcoj()) {
            "wcoj".to_string()
        } else if plans.iter().all(|p| !p.prefers_wcoj()) {
            "backtrack".to_string()
        } else {
            "mixed".to_string()
        };
        out.push(WcojMetric {
            workload: format!("E4 grid-CQS over D* (k={k}, 10 vertices)"),
            backtrack_ms,
            dense_ms,
            planner,
            answers: n_dn,
            answers_agree: n_bt == n_dn,
            scaling: Vec::new(),
        });
    }
    out
}

/// Triangle counting on a sparse-ish random graph: the textbook
/// worst-case-optimal-join workload (AGM bound `O(|E|^{3/2})` vs the
/// pairwise-join blowup).
pub fn triangle_count_metric() -> WcojMetric {
    let db = graph_db(&random_graph(96, 0.15, 7));
    let plan = CompiledQuery::compile(&clique_cq(3).atoms);
    measure(
        "triangle count (96 vertices, p=0.15)".to_string(),
        &plan,
        &db,
    )
}

/// Runs every WCOJ workload and collects the report rows.
pub fn wcoj_benchmark() -> Vec<WcojMetric> {
    let mut metrics = e10_clique_metrics();
    metrics.extend(e4_reduction_metrics());
    metrics.push(triangle_count_metric());
    metrics
}

/// Renders the metrics as the `BENCH_wcoj.json` document.
pub fn wcoj_json(metrics: &[WcojMetric]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"description\": \"{}\",\n",
        escape(
            "Worst-case-optimal join path: live before/after timings in ms \
             (min over adaptive repeats: >=3, within a ~30 ms budget) \
             for full answer enumeration of cyclic-shape \
             workloads. 'backtrack' and 'dense' force the backtracker and \
             the leapfrog executor (over dictionary-coded u32 keys, its \
             one representation) on the same compiled plan; 'speedup' is \
             backtrack / dense; 'planner' is what Strategy::Auto picks; \
             'host' is the target triple of the measuring machine. \
             'scaling' rows time \
             the morsel-driven parallel dense path per worker width; on a \
             1-core host (see 'available_parallelism') widths > 1 would \
             time-slice one CPU and report scheduling overhead as a \
             slowdown, so those rows carry 'skipped': 'single-core' \
             instead of a time."
        )
    ));
    out.push_str(&format!(
        "  \"host\": \"{}-{}\",\n",
        std::env::consts::ARCH,
        std::env::consts::OS
    ));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str("  \"metrics\": [\n");
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let scaling: Vec<String> = m
                .scaling
                .iter()
                .map(|&(w, ms)| match ms {
                    Some(ms) => format!("{{\"workers\": {w}, \"ms\": {ms:.3}}}"),
                    None => format!("{{\"workers\": {w}, \"skipped\": \"single-core\"}}"),
                })
                .collect();
            format!(
                "    {{\n      \"workload\": \"{}\",\n      \"backtrack_ms\": {:.3},\n      \
                 \"dense_ms\": {:.3},\n      \"speedup\": {:.2},\n      \
                 \"planner\": \"{}\",\n      \
                 \"answers\": {},\n      \"answers_agree\": {},\n      \
                 \"scaling\": [{}]\n    }}",
                escape(&m.workload),
                m.backtrack_ms,
                m.dense_ms,
                m.speedup(),
                escape(&m.planner),
                m.answers,
                m.answers_agree,
                scaling.join(", ")
            )
        })
        .collect();
    out.push_str(&items.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_microbench_agrees_and_routes_wcoj() {
        let m = triangle_count_metric();
        assert!(m.answers_agree, "executors disagree: {m:?}");
        assert_eq!(m.planner, "wcoj", "the triangle is cyclic");
        assert!(m.answers > 0, "a 96-vertex p=0.15 graph has triangles");
        // The measured scaling rows follow the host's plan exactly: width
        // 1 always has a time; wider rows have one iff the host does.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let plan = scaling_plan(cores);
        assert_eq!(m.scaling.len(), plan.len());
        for (&(w, ms), &(pw, run)) in m.scaling.iter().zip(&plan) {
            assert_eq!(w, pw);
            assert_eq!(ms.is_some(), run, "width {w} measured-ness");
        }
    }

    #[test]
    fn single_core_skips_wide_scaling_rows() {
        // On one core only width 1 measures; every wider width is skipped
        // rather than reported as a bogus slowdown.
        assert_eq!(
            scaling_plan(1),
            vec![(1, true), (2, false), (4, false), (8, false)]
        );
        // With real parallelism every width measures.
        for cores in [2, 4, 8, 64] {
            assert!(
                scaling_plan(cores).iter().all(|&(_, run)| run),
                "{cores} cores"
            );
        }
    }

    #[test]
    fn speedup_is_ratio_and_zero_safe() {
        let mut m = WcojMetric {
            workload: "x".into(),
            backtrack_ms: 8.0,
            dense_ms: 2.0,
            planner: "wcoj".into(),
            answers: 1,
            answers_agree: true,
            scaling: Vec::new(),
        };
        assert!((m.speedup() - 4.0).abs() < 1e-9);
        m.dense_ms = 0.0;
        assert_eq!(m.speedup(), 0.0);
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let metrics = vec![
            WcojMetric {
                workload: "E10 clique k=5".into(),
                backtrack_ms: 10.0,
                dense_ms: 0.25,
                planner: "wcoj".into(),
                answers: 120,
                answers_agree: true,
                scaling: vec![(1, Some(0.25)), (2, Some(0.26)), (4, Some(0.27)), (8, None)],
            },
            WcojMetric {
                workload: "triangle".into(),
                backtrack_ms: 3.0,
                dense_ms: 0.5,
                planner: "wcoj".into(),
                answers: 6,
                answers_agree: true,
                scaling: Vec::new(),
            },
        ];
        let json = wcoj_json(&metrics);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches("\"workload\"").count(), 2);
        assert!(json.contains("\"speedup\": 40.00"));
        assert!(json.contains("\"dense_ms\": 0.250"));
        assert!(!json.contains("wcoj_ms"));
        assert!(json.contains("{\"workers\": 4, \"ms\": 0.270}"));
        assert!(json.contains("{\"workers\": 8, \"skipped\": \"single-core\"}"));
        assert!(!json.contains("\"workers\": 8, \"ms\""));
        assert!(json.contains("\"scaling\": []"));
        assert!(json.contains("\"available_parallelism\": "));
        assert!(json.contains("\"host\": \""));
        assert!(json.contains("\"answers_agree\": true"));
    }
}
