//! Snapshot round-trip properties (seeded, many instances): a maintained
//! fixpoint saved and loaded back must be isomorphic to the original,
//! answer prepared queries identically under both join strategies, and
//! re-serve its persisted dense tries from cache instead of rebuilding
//! them. Damaged files must fail closed with the precise error for the
//! damage, and files of an older format version are refused by the
//! library and the CLI alike.

use gtgd::chase::{parse_tgds, ChaseBudget, ChaseRunner, MaintainedInstance, Tgd};
use gtgd::data::{GroundAtom, Predicate, Rng, Symbol, Value};
use gtgd::query::{instance_isomorphic, parse_cq, Engine, Strategy};
use gtgd::storage::{load_snapshot, save_snapshot, SnapshotError, SNAPSHOT_VERSION};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "gtgd-roundtrip-{}-{}-{tag}.gsnap",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// An org-style workload: guarded rules with one existential, a seeded
/// base, and a seeded burst of inserts and retractions so the persisted
/// state includes DRed-compacted fired sets, not just a fresh chase.
fn seeded_fixture(seed: u64) -> (Vec<Tgd>, MaintainedInstance) {
    // Terminating rules: the existentials bottom out (nulls never
    // re-trigger `Emp`), so the fixpoint stays small and retraction fast.
    let tgds =
        parse_tgds("Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Dept(D) -> HasHead(D,H)")
            .unwrap();
    let mut rng = Rng::seed(seed);
    let n = rng.range(4, 12);
    let mut atoms = Vec::new();
    for i in 0..n {
        atoms.push(GroundAtom::named("Emp", &[&format!("rt{seed}_e{i}")]));
        if rng.chance(0.5) {
            atoms.push(GroundAtom::named(
                "WorksIn",
                &[&format!("rt{seed}_e{i}"), &format!("rt{seed}_d{}", i % 3)],
            ));
        }
    }
    let mut m = ChaseRunner::new(&tgds)
        .budget(ChaseBudget::atoms(100_000))
        .maintain(&gtgd::data::Instance::from_atoms(atoms));
    // Mutate: some inserts, some retractions of existing base facts.
    for i in 0..rng.range(2, 6) {
        m.insert([GroundAtom::named("Emp", &[&format!("rt{seed}_x{i}")])]);
    }
    for i in 0..rng.range(1, 4) {
        m.retract([GroundAtom::named("Emp", &[&format!("rt{seed}_e{i}")])]);
    }
    (tgds, m)
}

/// Saves, loads back, and checks every round-trip property for one
/// fixture. Queries are evaluated with *both* join strategies on both
/// sides; in-process ids are stable, so answers must be bit-identical.
fn assert_round_trips(tag: &str, tgds: &[Tgd], m: &MaintainedInstance) {
    let queries = [
        "Q(X) :- Emp(X)",
        "Q(X, D) :- Emp(X), WorksIn(X, D)",
        "Q(D, H) :- Dept(D), HasHead(D, H)",
    ];
    // Warm a dense trie so the snapshot has a trie to persist.
    let worksin = Predicate(Symbol::new("WorksIn"));
    let warm: [(Predicate, usize, &[u16]); 1] = [(worksin, 2, &[1, 0])];
    m.instance().dense_snapshot(&warm);
    let stats_before = m.instance().dense_stats();

    let path = temp_path(tag);
    save_snapshot(&path, tgds, m).unwrap();
    let loaded = load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Trie rebuild behavior: every persisted trie installed (same process
    // → same interning order → validation passes), and demanding the
    // persisted order again is served from the store: no new trie, no
    // fresh dictionary code.
    assert_eq!(
        loaded.dense_tries_installed, stats_before.tries,
        "{tag}: all persisted tries install"
    );
    let after_load = loaded.instance().dense_stats();
    assert_eq!(after_load.tries, loaded.dense_tries_installed);
    loaded.instance().dense_snapshot(&warm);
    let after_demand = loaded.instance().dense_stats();
    assert_eq!(
        after_demand.tries, after_load.tries,
        "{tag}: re-demanding a persisted trie must not rebuild it"
    );
    assert_eq!(after_demand.dict_misses, after_load.dict_misses);

    assert!(
        instance_isomorphic(m.instance(), loaded.instance()),
        "{tag}: loaded instance must be isomorphic"
    );
    for q in queries {
        let cq = parse_cq(q).unwrap();
        for s in [Strategy::Backtrack, Strategy::Wcoj] {
            let orig = Engine::prepare(&cq).strategy(s).answers(m.instance());
            let back = Engine::prepare(&cq).strategy(s).answers(loaded.instance());
            assert_eq!(orig, back, "{tag}: answers differ for {q} under {s:?}");
        }
    }
    // Thawing for writes validates the persisted fired set and yields the
    // same (isomorphic) maintainable state.
    let thawed = loaded.into_maintained().unwrap();
    assert!(
        instance_isomorphic(m.instance(), thawed.instance()),
        "{tag}: thawed instance must be isomorphic"
    );
}

#[test]
fn seeded_fixtures_round_trip() {
    for seed in [1, 2, 3, 4, 5] {
        let (tgds, m) = seeded_fixture(seed);
        assert_round_trips(&format!("seed{seed}"), &tgds, &m);
    }
}

#[test]
fn post_remap_dense_state_round_trips() {
    // Force an order-preserving dictionary remap: intern a symbol *early*
    // (low id), build the dense dictionary without it, then insert a fact
    // mentioning it — the fresh dict entry sorts before existing ones.
    let early = Value::named("remap_aa_early");
    let tgds = parse_tgds("Edge(X,Y) -> Node(X), Node(Y)").unwrap();
    let mut m = ChaseRunner::new(&tgds)
        .budget(ChaseBudget::atoms(100_000))
        .maintain(&gtgd::data::Instance::from_atoms([GroundAtom::named(
            "Edge",
            &["remap_zz1", "remap_zz2"],
        )]));
    let edge = Predicate(Symbol::new("Edge"));
    m.instance().dense_snapshot(&[(edge, 2, &[0, 1])]);
    assert_eq!(m.instance().dense_stats().remaps, 0);
    m.insert([GroundAtom::new(
        edge,
        vec![early, Value::named("remap_zz3")],
    )]);
    m.instance().dense_snapshot(&[(edge, 2, &[0, 1])]);
    let stats = m.instance().dense_stats();
    assert!(stats.remaps >= 1, "fixture must actually remap");

    let path = temp_path("remap");
    save_snapshot(&path, &tgds, &m).unwrap();
    let loaded = load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    // The remapped dense state is still strictly ascending, so it
    // installs, counters included.
    assert!(loaded.dense_tables_installed >= 1);
    assert_eq!(loaded.dense_tries_installed, 1);
    assert_eq!(loaded.instance().dense_stats().remaps, stats.remaps);
    assert!(instance_isomorphic(m.instance(), loaded.instance()));
}

#[test]
fn damaged_files_fail_closed_with_precise_errors() {
    let (tgds, m) = seeded_fixture(99);
    let path = temp_path("damage");
    save_snapshot(&path, &tgds, &m).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Truncated: cut the file mid-payload.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    assert!(matches!(
        load_snapshot(&path),
        Err(SnapshotError::Truncated)
    ));

    // Corrupt: flip one payload byte; the checksum catches it.
    let mut corrupt = good.clone();
    let mid = 28 + (corrupt.len() - 28) / 2;
    corrupt[mid] ^= 0x40;
    std::fs::write(&path, &corrupt).unwrap();
    assert!(matches!(
        load_snapshot(&path),
        Err(SnapshotError::ChecksumMismatch)
    ));

    // Version bump: reported as unsupported, not as corruption.
    let mut bumped = good.clone();
    bumped[8] = bumped[8].wrapping_add(3);
    std::fs::write(&path, &bumped).unwrap();
    assert!(matches!(
        load_snapshot(&path),
        Err(SnapshotError::UnsupportedVersion(v)) if v == SNAPSHOT_VERSION + 3
    ));

    // Not a snapshot at all.
    std::fs::write(&path, b"mode open.\nfact Emp(ann).\n").unwrap();
    assert!(matches!(load_snapshot(&path), Err(SnapshotError::BadMagic)));

    // Missing file surfaces the io error.
    std::fs::remove_file(&path).ok();
    assert!(matches!(load_snapshot(&path), Err(SnapshotError::Io(_))));
}

#[test]
fn version_one_snapshots_are_refused_with_a_described_error() {
    // Version 1 carried the sorted-permutation section that version 2
    // dropped. The header is checked before any section is decoded, so a
    // current image relabelled as version 1 stands in for a real one.
    let (tgds, m) = seeded_fixture(7);
    let path = temp_path("v1");
    save_snapshot(&path, &tgds, &m).unwrap();
    let mut old = std::fs::read(&path).unwrap();
    old[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &old).unwrap();

    let err = load_snapshot(&path).unwrap_err();
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion(1)),
        "got {err:?}"
    );
    assert_eq!(SNAPSHOT_VERSION, 2);
    let msg = err.to_string();
    assert!(msg.contains("version 1"), "{msg}");
    assert!(msg.contains("expected 2"), "{msg}");

    // The daemon refuses it before binding, with the storage exit code.
    let out = Command::new(env!("CARGO_BIN_EXE_gtgd"))
        .args(["serve", path.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unsupported snapshot version 1"),
        "{stderr}"
    );
}
