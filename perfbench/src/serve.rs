//! The serve family (the `lubm-serve` workload's focus): an in-process
//! `Server` over the `univ = 8` maintained snapshot, driven by one
//! `Client` connection in a closed loop through a fixed seeded op
//! sequence. 49 of every 50 ops are reads (~80% one-atom `point` lookups
//! over the generated entities, ~10% the E18 `join`, ~10% the LUBM Q9
//! `cyclic` triangle); the 50th is a write, alternating `insert` of a
//! fresh `Professor(..)` and `retract` of the same fact, so the fixpoint
//! returns to its baseline after every pair.
//!
//! Every response is checked against an in-process reference: read
//! answers against the reference fixpoint, write deltas against the delta
//! one insert makes in-process.

use crate::build::{budget, certain, generate, E18_QUERY};
use crate::common::{mix, timed, traced, Layers, Report, Samples};
use gtgd_chase::{MaintainedInstance, Tgd};
use gtgd_data::obs::Metric;
use gtgd_data::{parse_fact, Rng, Value};
use gtgd_query::{parse_cq, Engine, PreparedQuery};
use gtgd_storage::{load_snapshot, save_snapshot, Client, Server};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// LUBM Q9: advisor, the advisor's course, a student taking it.
pub const Q9_QUERY: &str = "Ans(X,Y,Z) :- advisor(X,Y), teacherOf(Y,Z), takesCourse(X,Z)";
/// Ops per read/write period: 49 reads, then one write.
const PERIOD: usize = 50;
/// Entities per kind the point lookups draw their constants from.
const POOL_PER_KIND: usize = 48;
/// The daemon's flush policy as it stands (the benchmark does not change
/// it): each write rewrites the snapshot to a temp file and renames it
/// over the old one, with no fsync.
pub const FLUSH_POLICY: &str = "write temp file + rename, no fsync";

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Point,
    Join,
    Cyclic,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Join => "join",
            Class::Cyclic => "cyclic",
        }
    }
}

/// A running daemon and its one client connection.
struct Daemon {
    client: Client,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(snapshot: PathBuf) -> Result<Daemon, String> {
        let server = Server::start(snapshot, "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"));
        let mut d = Daemon {
            client: client?,
            thread: Some(thread),
        };
        d.client.ping().map_err(|e| format!("ping: {e}"))?;
        Ok(d)
    }

    /// Stops the daemon through the `shutdown` op and joins its accept
    /// thread.
    fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        match thread.join() {
            Ok(r) => r.map_err(|e| format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".to_owned()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

pub struct Serve {
    daemon: Daemon,
    tgds: Vec<Tgd>,
    base: PathBuf,
    replica: PathBuf,
    /// The in-process reference fixpoint. Reads are checked against it;
    /// in a traced run it also replays every write as the daemon does.
    reference: MaintainedInstance,
    baseline_atoms: usize,
    /// Atoms one fresh `Professor` insert adds.
    insert_delta: usize,
    points: Vec<String>,
    rng: Rng,
    plans: HashMap<String, PreparedQuery>,
    /// Rendered reference answers. A fresh professor derives only
    /// null-valued `worksFor`/`subOrganizationOf` atoms, so no benchmark
    /// query's certain answers change with the writes.
    expected: HashMap<String, String>,
    writes: u64,
    pending: Option<String>,
    reads: HashMap<Class, Samples>,
    all_reads: Samples,
    insert: Samples,
    retract: Samples,
    all_writes: Samples,
    layers: Layers,
    /// Traced run: summed replica write time (clone + apply + save) and
    /// summed write round trips, for the write coverage check.
    write_layers_ms: f64,
    write_rtt_ms: f64,
}

/// How the daemon renders a query's answers: rows sorted, values
/// tab-separated, rows newline-separated.
fn render(rows: &[Vec<Value>]) -> String {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// One-atom lookups with a constant drawn over the generated entities.
fn point_queries(facts: &gtgd_data::Instance, rng: &mut Rng) -> Vec<String> {
    let kinds: [(&str, &[&str]); 4] = [
        (
            "Professor",
            &["Q(D) :- worksFor({}, D)", "Q(C) :- teacherOf({}, C)"],
        ),
        ("Student", &["Q(C) :- takesCourse({}, C)"]),
        ("Course", &["Q(S) :- takesCourse(S, {})"]),
        ("Department", &["Q(X) :- memberOf(X, {})"]),
    ];
    let mut out = Vec::new();
    for (class, templates) in kinds {
        let mut entities: Vec<String> = facts
            .iter()
            .filter(|a| a.predicate.to_string() == class)
            .map(|a| a.args[0].to_string())
            .collect();
        entities.sort();
        for _ in 0..POOL_PER_KIND.min(entities.len()) {
            let e = entities.swap_remove(rng.below(entities.len() as u64) as usize);
            out.extend(templates.iter().map(|t| t.replace("{}", &e)));
        }
    }
    out
}

/// The in-process compiled plan for `text`, prepared once.
fn plan<'a>(plans: &'a mut HashMap<String, PreparedQuery>, text: &str) -> &'a PreparedQuery {
    plans
        .entry(text.to_owned())
        .or_insert_with(|| Engine::prepare(&parse_cq(text).expect("benchmark queries parse")))
}

impl Serve {
    /// Set-up: build the run's `univ = 8` maintained snapshot, start the
    /// daemon over a copy of it, and make the first write, which pays the
    /// thaw. The write is retracted again so the fixpoint is at baseline.
    pub fn setup(seed: u64, dir: &Path, report: &mut Report) -> Result<Serve, String> {
        let program = generate(mix(seed, 0x5e));
        let reference = program.maintain(budget());
        let base = dir.join("serve-base.gsnap");
        let live = dir.join("serve-live.gsnap");
        save_snapshot(&base, &program.tgds, &reference).map_err(|e| format!("save: {e}"))?;
        std::fs::copy(&base, &live).map_err(|e| format!("copy snapshot: {e}"))?;
        let mut daemon = Daemon::start(live)?;
        // Every benchmark insert adds a fresh `Professor`, so each must add
        // exactly the atoms one such insert adds in-process.
        let probe = format!("Professor(pb_setup_{seed:x})");
        let insert_delta = reference
            .clone()
            .insert([parse_fact(&probe).expect("the probe fact parses")])
            .atoms_added;
        let first = daemon
            .client
            .insert(&probe)
            .map_err(|e| format!("first write: {e}"))?;
        if first.get("atoms_added") != Some(&insert_delta.to_string()) {
            return Err(format!(
                "first write added {first:?}, expected {insert_delta} atoms"
            ));
        }
        daemon
            .client
            .retract(&probe)
            .map_err(|e| format!("first retract: {e}"))?;
        let mut rng = Rng::seed(mix(seed, 0x5f));
        let points = point_queries(&program.facts, &mut rng);
        let baseline_atoms = reference.instance().len();
        report
            .exact
            .insert("serve.fixpoint_atoms".into(), baseline_atoms as u64);
        report
            .exact
            .insert("serve.insert_delta".into(), insert_delta as u64);
        report
            .exact
            .insert("serve.point_queries".into(), points.len() as u64);
        Ok(Serve {
            daemon,
            tgds: program.tgds,
            base,
            replica: dir.join("serve-replica.gsnap"),
            reference,
            baseline_atoms,
            insert_delta,
            points,
            rng,
            plans: HashMap::new(),
            expected: HashMap::new(),
            writes: 0,
            pending: None,
            reads: HashMap::new(),
            all_reads: Samples::default(),
            insert: Samples::default(),
            retract: Samples::default(),
            all_writes: Samples::default(),
            layers: Layers::default(),
            write_layers_ms: 0.0,
            write_rtt_ms: 0.0,
        })
    }

    pub fn stop(&mut self) -> Result<(), String> {
        self.daemon.stop()
    }

    /// One period: 49 reads, then one write.
    pub fn step(&mut self, trace: bool, report: &mut Report) {
        for _ in 1..PERIOD {
            self.read(trace, report);
        }
        self.write(trace, report);
    }

    pub fn finish(&mut self, trace: bool, report: &mut Report) {
        for (class, s) in &self.reads {
            report.record_samples(class.name(), s);
        }
        report.record_samples("read", &self.all_reads);
        report.record_samples("insert", &self.insert);
        report.record_samples("retract", &self.retract);
        report.record_samples("write", &self.all_writes);
        if !trace {
            for class in [Class::Point, Class::Join, Class::Cyclic] {
                report.adjusted(
                    &format!("{}_fast25_ms", class.name()),
                    self.reads[&class].fast_quarter_mean(),
                    "ms",
                );
            }
            let insert = self.insert.fast_quarter_mean();
            report.adjusted("insert_fast25_ms", insert, "ms");
            let retract = self.retract.fast_quarter_mean();
            report.adjusted("retract_fast25_ms", retract, "ms");
            return;
        }
        for class in [Class::Point, Class::Join, Class::Cyclic] {
            let eval = self
                .layers
                .median(&format!("{}.query.eval_ms", class.name()));
            self.layers.add(
                &format!("{}.serve.overhead_ms", class.name()),
                self.reads[&class].median() - eval,
                "ms",
            );
        }
        let stats = self.daemon.client.stats();
        let ratio = stats.ok().and_then(|s| {
            let hits: f64 = s.get("plan_hits")?.parse().ok()?;
            let misses: f64 = s.get("plan_misses")?.parse().ok()?;
            Some(hits / (hits + misses))
        });
        report.check(ratio.is_some(), || "stats op failed".to_owned());
        self.layers
            .add("serve.plan_hit_ratio", ratio.unwrap_or(0.0), "ratio");
        for _ in 0..3 {
            let (load_ms, loaded) = timed(|| load_snapshot(&self.base));
            let loaded = loaded.expect("the base snapshot loads");
            let (thaw_ms, thawed) = timed(|| loaded.to_maintained());
            thawed.expect("the base snapshot thaws");
            self.layers.add("storage.load_ms", load_ms, "ms");
            self.layers.add("storage.thaw_ms", thaw_ms, "ms");
        }
        let share = self.write_layers_ms / self.write_rtt_ms;
        self.layers.add("write.coverage", share, "ratio");
        self.layers.report("serve", report);
        report.coverage("serve.write.coverage", share);
    }

    fn next_read(&mut self) -> (Class, String) {
        match self.rng.below(10) {
            8 => (Class::Join, E18_QUERY.to_owned()),
            9 => (Class::Cyclic, Q9_QUERY.to_owned()),
            _ => {
                let i = self.rng.below(self.points.len() as u64) as usize;
                (Class::Point, self.points[i].clone())
            }
        }
    }

    fn read(&mut self, trace: bool, report: &mut Report) {
        let (class, text) = self.next_read();
        let (rtt, resp) = timed(|| self.daemon.client.request(&[("op", "query"), ("q", &text)]));
        self.reads.entry(class).or_default().push(rtt);
        self.all_reads.push(rtt);
        let expected = if trace {
            let (layers, name) = (&mut self.layers, class.name());
            if class == Class::Point {
                let (ms, _) =
                    timed(|| Engine::prepare(&parse_cq(&text).expect("point query parses")));
                layers.add("query.prepare_ms", ms, "ms");
            }
            let q = plan(&mut self.plans, &text);
            let (ms, answers, rep) = traced(|| q.answers(self.reference.instance()));
            layers.add(&format!("{name}.query.eval_ms"), ms, "ms");
            if class != Class::Point {
                layers.count(
                    &format!("{name}.kernel.nodes_visited"),
                    &rep,
                    Metric::KernelNodes,
                );
                layers.count(&format!("{name}.wcoj.seeks"), &rep, Metric::WcojSeeks);
            }
            if class == Class::Join {
                let (plain, _) = timed(|| q.answers(self.reference.instance()));
                layers.add("join.trace_overhead_ratio", ms / plain, "ratio");
            }
            render(&certain(answers))
        } else {
            self.expected_answers(&text)
        };
        let got = resp.as_ref().ok().and_then(|r| {
            (r.get("ok").map(String::as_str) == Some("true")).then(|| r.get("answers"))?
        });
        report.check(got == Some(&expected), || {
            format!(
                "{} read {text:?}: response {resp:?} differs from the reference",
                class.name()
            )
        });
    }

    fn expected_answers(&mut self, text: &str) -> String {
        if let Some(e) = self.expected.get(text) {
            return e.clone();
        }
        let q = plan(&mut self.plans, text);
        let rendered = render(&certain(q.answers(self.reference.instance())));
        self.expected.insert(text.to_owned(), rendered.clone());
        rendered
    }

    /// One write: its round trip, checked against the reference delta,
    /// and in a traced run the in-process replica of what the daemon does
    /// per write (clone, apply, save).
    fn write(&mut self, trace: bool, report: &mut Report) {
        self.writes += 1;
        let (insert, fact) = match self.pending.take() {
            Some(fact) => (false, fact),
            None => {
                let fact = format!("Professor(pbw_{})", self.writes);
                self.pending = Some(fact.clone());
                (true, fact)
            }
        };
        let op = if insert { "insert" } else { "retract" };
        let (rtt, resp) = timed(|| self.daemon.client.request(&[("op", op), ("atom", &fact)]));
        self.all_writes.push(rtt);
        if insert {
            &mut self.insert
        } else {
            &mut self.retract
        }
        .push(rtt);
        let (added, atoms) = if insert {
            (self.insert_delta, self.baseline_atoms + self.insert_delta)
        } else {
            (0, self.baseline_atoms)
        };
        let mut ok = resp.as_ref().is_ok_and(|r| {
            r.get("ok").map(String::as_str) == Some("true")
                && r.get("atoms_added") == Some(&added.to_string())
                && r.get("atoms") == Some(&atoms.to_string())
        });
        if trace {
            let atom = parse_fact(&fact).expect("benchmark facts parse");
            let (clone_ms, mut next) = timed(|| self.reference.clone());
            let (apply_ms, delta, rep) = traced(|| {
                if insert {
                    next.insert([atom])
                } else {
                    next.retract([atom])
                }
            });
            let (save_ms, saved) = timed(|| save_snapshot(&self.replica, &self.tgds, &next));
            ok &= saved.is_ok() && delta.atoms_added == added && next.instance().len() == atoms;
            let layers = &mut self.layers;
            layers.add("chase.clone_ms", clone_ms, "ms");
            layers.add(&format!("chase.{op}_ms"), apply_ms, "ms");
            layers.add("storage.save_ms", save_ms, "ms");
            if !insert {
                layers.count(
                    "maint.atoms_overdeleted",
                    &rep,
                    Metric::MaintAtomsOverdeleted,
                );
                layers.count("maint.atoms_rederived", &rep, Metric::MaintAtomsRederived);
            }
            self.write_layers_ms += clone_ms + apply_ms + save_ms;
            self.write_rtt_ms += rtt;
            self.reference = next;
        }
        report.check(ok, || {
            format!("{op} {fact}: response {resp:?}, expected {added} added, {atoms} atoms")
        });
    }
}
