//! The build family (the `lubm-build` workload's focus): the E18 pipeline
//! at `univ = 8`, alternating two ops on one freshly generated input per
//! cycle:
//!
//! * `answer` — gen → ingest → `Program::chase` → the E18 query;
//! * `publish` — gen → ingest → `Program::maintain` → `save_snapshot` →
//!   `load_snapshot`, what `gtgd serve --ingest` pays.
//!
//! Each cycle draws its own generator seed from the run seed, so a median
//! averages over many inputs instead of resting on one.

use crate::common::{mix, timed, traced, Layers, Report, Samples};
use gtgd_chase::{ChaseBudget, ChaseOutcome, MaintainedInstance};
use gtgd_data::obs::Metric;
use gtgd_data::Value;
use gtgd_ingest::{ingest, LubmConfig, LubmSource, Program};
use gtgd_query::{parse_cq, Engine};
use gtgd_storage::{load_snapshot, save_snapshot, snapshot_bytes, LoadedSnapshot};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// The LUBM scale both LUBM workloads run at (~10.5k base atoms).
pub const UNIVERSITIES: usize = 8;
/// The E18 query: an acyclic 3-atom join over derived and base relations.
pub const E18_QUERY: &str = "Ans(X,U) :- Professor(X), worksFor(X,D), subOrganizationOf(D,U)";

pub fn budget() -> ChaseBudget {
    ChaseBudget::atoms(20_000_000)
}

/// Generates and ingests the `univ = 8` LUBM data for one generator seed.
pub fn generate(seed: u64) -> Program {
    let mut src = LubmSource::new(LubmConfig {
        universities: UNIVERSITIES,
        seed,
    });
    ingest(&mut src).expect("the LUBM generator emits well-formed facts")
}

/// The certain (null-free) rows of an answer set, sorted.
pub fn certain(answers: HashSet<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = answers
        .into_iter()
        .filter(|row| row.iter().all(|v| v.is_named()))
        .collect();
    rows.sort();
    rows
}

fn e18() -> gtgd_query::PreparedQuery {
    Engine::prepare(&parse_cq(E18_QUERY).expect("the E18 query parses"))
}

pub struct Build {
    seed: u64,
    snap: PathBuf,
    cycles: u64,
    answer: Samples,
    publish: Samples,
    layers: Layers,
    answer_traced: Samples,
    publish_traced: Samples,
}

/// What one `answer` op produced. Ops hand their results out and the
/// results are dropped after the clock stops, so no op pays for freeing.
struct Answered {
    _program: Program,
    chased: ChaseOutcome,
    rows: Vec<Vec<Value>>,
}

/// What one `publish` op produced.
struct Published {
    program: Program,
    maintained: MaintainedInstance,
    loaded: Result<LoadedSnapshot, String>,
}

impl Build {
    /// Set-up: one warm-up cycle on the run's reference input, which also
    /// yields the exact counts of the determinism self-check.
    pub fn setup(seed: u64, dir: &Path, report: &mut Report) -> Result<Build, String> {
        let snap = dir.join("publish.gsnap");
        let program = generate(mix(seed, 0xb0));
        let (_, chased, rep) = traced(|| program.chase(budget()));
        let answers = certain(e18().answers(&chased.instance));
        let m = program.maintain(budget());
        save_snapshot(&snap, &program.tgds, &m).map_err(|e| format!("warm-up save: {e}"))?;
        let bytes = std::fs::metadata(&snap).map_err(|e| e.to_string())?.len();
        let loaded = load_snapshot(&snap).map_err(|e| format!("warm-up load: {e}"))?;
        if loaded.instance().len() != chased.instance.len() {
            return Err("warm-up: loaded snapshot differs from the chase".to_owned());
        }
        let exact = &mut report.exact;
        exact.insert("build.base_atoms".into(), program.facts.len() as u64);
        exact.insert("build.fixpoint_atoms".into(), chased.instance.len() as u64);
        exact.insert("build.e18_answers".into(), answers.len() as u64);
        exact.insert("build.snapshot_bytes".into(), bytes);
        exact.insert(
            "build.trigger_firings".into(),
            rep.counter(Metric::TriggerFirings),
        );
        Ok(Build {
            seed,
            snap,
            cycles: 0,
            answer: Samples::default(),
            publish: Samples::default(),
            layers: Layers::default(),
            answer_traced: Samples::default(),
            publish_traced: Samples::default(),
        })
    }

    /// Bytes of the reference snapshot per atom it stores (exact per seed).
    pub fn bytes_per_atom(report: &Report) -> f64 {
        report.exact["build.snapshot_bytes"] as f64 / report.exact["build.fixpoint_atoms"] as f64
    }

    fn answer_op(gen: u64) -> (f64, Answered) {
        timed(|| {
            let program = generate(gen);
            let chased = program.chase(budget());
            let rows = certain(e18().answers(&chased.instance));
            Answered {
                _program: program,
                chased,
                rows,
            }
        })
    }

    fn publish_op(&self, gen: u64) -> (f64, Published) {
        timed(|| {
            let program = generate(gen);
            let maintained = program.maintain(budget());
            let loaded = save_snapshot(&self.snap, &program.tgds, &maintained)
                .and_then(|()| load_snapshot(&self.snap))
                .map_err(|e| e.to_string());
            Published {
                program,
                maintained,
                loaded,
            }
        })
    }

    /// The output checks of one cycle: the chase, the maintained fixpoint
    /// and the loaded snapshot have the same size, and E18 answers agree
    /// between the chased and the loaded instance.
    fn check(gen: u64, a: &Answered, p: &Published, report: &mut Report) {
        let chased_atoms = a.chased.instance.len();
        let loaded = p.loaded.as_ref();
        let loaded_rows = loaded.ok().map(|l| certain(e18().answers(l.instance())));
        report.check(
            !a.rows.is_empty() && loaded_rows.as_ref() == Some(&a.rows),
            || format!("answer (gen seed {gen}): E18 answers differ between chase and snapshot"),
        );
        let maintained_atoms = p.maintained.instance().len();
        let loaded_atoms = loaded.map(|l| l.instance().len());
        report.check(
            maintained_atoms == chased_atoms && loaded_atoms == Ok(chased_atoms),
            || {
                format!(
                    "publish (gen seed {gen}): chase {chased_atoms} atoms, \
                     maintained {maintained_atoms}, loaded {loaded_atoms:?}"
                )
            },
        );
    }

    /// One cycle: `answer` then `publish` on one fresh input. In a traced
    /// run every other cycle goes through the layers one call at a time
    /// with the probes on; the untraced cycles between them give the base
    /// for the tracing overhead.
    pub fn step(&mut self, trace: bool, report: &mut Report) {
        let gen = mix(self.seed, 0x1000 + self.cycles);
        self.cycles += 1;
        let (a, p) = if trace && self.cycles.is_multiple_of(2) {
            let a = self.traced_answer(gen);
            let p = self.traced_publish(gen);
            self.answer_traced.push(a.0);
            self.publish_traced.push(p.0);
            (a.1, p.1)
        } else {
            let a = Self::answer_op(gen);
            let p = self.publish_op(gen);
            self.answer.push(a.0);
            self.publish.push(p.0);
            (a.1, p.1)
        };
        Self::check(gen, &a, &p, report);
    }

    pub fn finish(&self, trace: bool, report: &mut Report) {
        report.record_samples("answer", &self.answer);
        report.record_samples("publish", &self.publish);
        if !trace {
            let answer = self.answer.fast_quarter_mean();
            report.adjusted("answer_fast25_ms", answer, "ms");
            let publish = self.publish.fast_quarter_mean();
            report.adjusted("publish_fast25_ms", publish, "ms");
            return;
        }
        let layers = &self.layers;
        layers.report("build", report);
        let (answer, publish) = (self.answer.median(), self.publish.median());
        report.coverage("build.answer.coverage", layers.median("answer.coverage"));
        report.coverage("build.publish.coverage", layers.median("publish.coverage"));
        report.metric(
            "build.answer.trace_overhead_ratio",
            self.answer_traced.median() / answer,
            "ratio",
        );
        report.metric(
            "build.publish.trace_overhead_ratio",
            self.publish_traced.median() / publish,
            "ratio",
        );
    }

    fn traced_answer(&mut self, gen: u64) -> (f64, Answered) {
        let layers = &mut self.layers;
        let (ms, (answered, layer_ms), rep) = traced(|| {
            let (ingest_ms, program) = timed(|| generate(gen));
            let (chase_ms, chased) = timed(|| program.chase(budget()));
            let (prepare_ms, q) = timed(e18);
            let (eval_ms, answers) = timed(|| q.answers(&chased.instance));
            let rows = certain(answers);
            layers.add("answer.ingest.ingest_ms", ingest_ms, "ms");
            layers.add("chase.chase_ms", chase_ms, "ms");
            layers.add("query.prepare_ms", prepare_ms, "ms");
            layers.add("query.eval_ms", eval_ms, "ms");
            let answered = Answered {
                _program: program,
                chased,
                rows,
            };
            (answered, ingest_ms + chase_ms + prepare_ms + eval_ms)
        });
        layers.add("answer.coverage", layer_ms / ms, "ratio");
        layers.count("chase.trigger_firings", &rep, Metric::TriggerFirings);
        layers.count("answer.index.full_builds", &rep, Metric::IndexFullBuilds);
        layers.count(
            "answer.index.merge_extends",
            &rep,
            Metric::IndexMergeExtends,
        );
        layers.count("answer.dense.remaps", &rep, Metric::DenseRemaps);
        (ms, answered)
    }

    fn traced_publish(&mut self, gen: u64) -> (f64, Published) {
        let (snap, layers) = (&self.snap, &mut self.layers);
        let (ms, (published, save_ms, layer_ms), rep) = traced(|| {
            let (ingest_ms, program) = timed(|| generate(gen));
            let (maintain_ms, maintained) = timed(|| program.maintain(budget()));
            let (save_ms, saved) = timed(|| save_snapshot(snap, &program.tgds, &maintained));
            let (load_ms, loaded) = timed(|| saved.and_then(|()| load_snapshot(snap)));
            layers.add("publish.ingest.ingest_ms", ingest_ms, "ms");
            layers.add("chase.maintain_ms", maintain_ms, "ms");
            layers.add("storage.save_ms", save_ms, "ms");
            layers.add("storage.load_ms", load_ms, "ms");
            let published = Published {
                program,
                maintained,
                loaded: loaded.map_err(|e| e.to_string()),
            };
            (
                published,
                save_ms,
                ingest_ms + maintain_ms + save_ms + load_ms,
            )
        });
        layers.add("publish.coverage", layer_ms / ms, "ratio");
        layers.count("maint.triggers_fired", &rep, Metric::MaintTriggersFired);
        layers.count("publish.index.full_builds", &rep, Metric::IndexFullBuilds);
        layers.count(
            "publish.index.merge_extends",
            &rep,
            Metric::IndexMergeExtends,
        );
        layers.count("publish.dense.remaps", &rep, Metric::DenseRemaps);
        // Encoding is timed on its own, outside the op: save minus encode
        // is the write.
        let (encode_ms, bytes) =
            timed(|| snapshot_bytes(&published.program.tgds, &published.maintained));
        layers.add("storage.encode_ms", encode_ms, "ms");
        layers.add("storage.write_ms", save_ms - encode_ms, "ms");
        layers.add("storage.snapshot_bytes", bytes.len() as f64, "count");
        (ms, published)
    }
}
