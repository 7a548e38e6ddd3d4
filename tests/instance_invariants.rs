//! Property testing of `Instance` index invariants under random
//! interleavings of `insert` / `extend_from` / `restrict_to` /
//! `map_values` (a seeded loop over [`Rng`]; the build is offline, so no
//! proptest):
//!
//! * every `(predicate, position, value)` index entry round-trips to the
//!   atoms it names, and every atom is reachable through each of its
//!   argument positions;
//! * `dom()` is exactly the set of argument values, deduplicated in
//!   first-occurrence order;
//! * the columnar arena mirrors per-predicate insertion order;
//! * the dense tries (the sorted indexes the WCOJ path walks) decode to
//!   the rows sorted under every column order asked for, and are
//!   maintained *incrementally* — insert deltas encode only their fresh
//!   values and a chase never re-encodes a known value (asserted by the
//!   dictionary counter tests at the bottom).

use gtgd::chase::{chase, parse_tgds, ChaseBudget};
use gtgd::data::{GroundAtom, Instance, Predicate, Rng, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn dom_pool() -> Vec<Value> {
    ["a", "b", "c", "d", "e", "f"]
        .iter()
        .map(|s| Value::named(s))
        .collect()
}

fn preds() -> Vec<(Predicate, usize)> {
    vec![
        (Predicate::new("U"), 1),
        (Predicate::new("E"), 2),
        (Predicate::new("T"), 3),
    ]
}

fn arb_atom(rng: &mut Rng) -> GroundAtom {
    let d = dom_pool();
    let ps = preds();
    let (p, k) = ps[rng.below(ps.len() as u64) as usize];
    let args: Vec<Value> = (0..k).map(|_| d[rng.below(6) as usize]).collect();
    GroundAtom::new(p, args)
}

/// Reference model: the deduplicated atom sequence in insertion order.
/// Every instance operation is mirrored here with the obvious O(n²)
/// implementation, and the real `Instance` must agree on everything.
fn model_insert(model: &mut Vec<GroundAtom>, a: GroundAtom) {
    if !model.contains(&a) {
        model.push(a);
    }
}

fn check_invariants(inst: &Instance, model: &[GroundAtom], ctx: &str) {
    // The atom store is the model, exactly and in order.
    assert_eq!(inst.len(), model.len(), "len {ctx}");
    for (i, a) in model.iter().enumerate() {
        assert_eq!(inst.atom(i), a, "atom {i} {ctx}");
        assert!(inst.contains(a), "contains {ctx}");
    }

    // dom(): exact value set, first-occurrence order, no duplicates.
    let mut expected_dom: Vec<Value> = Vec::new();
    for a in model {
        for &v in &a.args {
            if !expected_dom.contains(&v) {
                expected_dom.push(v);
            }
        }
    }
    assert_eq!(inst.dom(), expected_dom.as_slice(), "dom {ctx}");
    for &v in &expected_dom {
        assert!(inst.dom_contains(v), "dom_contains {ctx}");
    }

    // (predicate, position, value) round-trip, both directions, and the
    // count accessor agrees with the id list.
    let mut expected_ids: HashMap<(Predicate, usize, Value), Vec<usize>> = HashMap::new();
    for (i, a) in model.iter().enumerate() {
        for (pos, &v) in a.args.iter().enumerate() {
            expected_ids
                .entry((a.predicate, pos, v))
                .or_default()
                .push(i);
        }
    }
    for ((p, pos, v), ids) in &expected_ids {
        assert_eq!(
            inst.atoms_matching(*p, *pos, *v),
            ids.as_slice(),
            "ids {ctx}"
        );
        assert_eq!(inst.index_count(*p, *pos, *v), ids.len(), "count {ctx}");
    }
    // Absent keys report empty (a value in dom but never at this slot).
    let ghost = Value::named("never-inserted");
    for (p, k) in preds() {
        for pos in 0..k {
            if !expected_ids.contains_key(&(p, pos, ghost)) {
                assert!(inst.atoms_matching(p, pos, ghost).is_empty(), "ghost {ctx}");
                assert_eq!(inst.index_count(p, pos, ghost), 0, "ghost count {ctx}");
            }
        }
    }

    // Columnar arena mirrors per-predicate insertion order.
    for (p, k) in preds() {
        let expected_rows: Vec<&GroundAtom> = model
            .iter()
            .filter(|a| a.predicate == p && a.args.len() == k)
            .collect();
        match inst.columns(p, k) {
            None => assert!(expected_rows.is_empty(), "missing columns {ctx}"),
            Some(pc) => {
                assert_eq!(pc.rows(), expected_rows.len(), "rows {ctx}");
                for j in 0..k {
                    for (r, a) in expected_rows.iter().enumerate() {
                        assert_eq!(pc.col(j)[r], a.args[j], "col {j} row {r} {ctx}");
                    }
                }
            }
        }
    }
    check_dense(inst, model, ctx);
}

#[test]
fn instance_invariants_under_random_interleavings() {
    let mut rng = Rng::seed(0xbeef_f00d);
    let d = dom_pool();
    for round in 0..24u32 {
        let mut inst = Instance::new();
        let mut model: Vec<GroundAtom> = Vec::new();
        let n_ops = 6 + rng.below(14);
        for op in 0..n_ops {
            let ctx = format!("round {round} op {op}");
            match rng.below(10) {
                // insert: the common case, weighted accordingly.
                0..=5 => {
                    let a = arb_atom(&mut rng);
                    let expected_new = !model.contains(&a);
                    assert_eq!(inst.insert(a.clone()), expected_new, "insert {ctx}");
                    model_insert(&mut model, a);
                }
                // extend_from a small random instance.
                6 | 7 => {
                    let mut other = Instance::new();
                    for _ in 0..rng.below(6) {
                        other.insert(arb_atom(&mut rng));
                    }
                    inst.extend_from(&other);
                    for a in other.iter() {
                        model_insert(&mut model, a.clone());
                    }
                }
                // restrict_to a random keep-set of values.
                8 => {
                    let keep: HashSet<Value> =
                        d.iter().copied().filter(|_| rng.chance(0.6)).collect();
                    inst = inst.restrict_to(&keep);
                    model.retain(|a| a.args.iter().all(|v| keep.contains(v)));
                }
                // map_values: collapse one random value onto another.
                _ => {
                    let from = d[rng.below(6) as usize];
                    let to = d[rng.below(6) as usize];
                    inst = inst.map_values(|v| if v == from { to } else { v });
                    let mapped: Vec<GroundAtom> = model
                        .iter()
                        .map(|a| {
                            GroundAtom::new(
                                a.predicate,
                                a.args
                                    .iter()
                                    .map(|&v| if v == from { to } else { v })
                                    .collect::<Vec<_>>(),
                            )
                        })
                        .collect();
                    model.clear();
                    for a in mapped {
                        model_insert(&mut model, a);
                    }
                }
            }
            check_invariants(&inst, &model, &ctx);
        }
    }
}

/// The rows of `p` (at `arity`) in the model, permuted into trie level
/// order and sorted: what the dense trie under `order` must decode to.
fn sorted_rows(model: &[GroundAtom], p: Predicate, arity: usize, order: &[u16]) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = model
        .iter()
        .filter(|a| a.predicate == p && a.args.len() == arity)
        .map(|a| order.iter().map(|&j| a.args[j as usize]).collect())
        .collect();
    rows.sort();
    rows
}

/// Decodes every row of a dense trie, level by level.
fn decoded(dict: &gtgd::data::Dict, t: &gtgd::data::DenseTrie, arity: usize) -> Vec<Vec<Value>> {
    (0..t.rows())
        .map(|i| (0..arity).map(|l| dict.decode(t.level(l)[i])).collect())
        .collect()
}

/// The dense dictionary/trie view decodes to exactly the model's rows —
/// sorted, deduplicated — for every predicate, under the forward and the
/// reverse column order. After a retraction the touched tries are rebuilt
/// from the shrunk arena while the dictionary keeps stale entries
/// (harmless: absent values still probe to nothing).
fn check_dense(inst: &Instance, model: &[GroundAtom], ctx: &str) {
    for (p, k) in preds() {
        let forward: Vec<u16> = (0..k as u16).collect();
        let reverse: Vec<u16> = (0..k as u16).rev().collect();
        for order in [forward, reverse] {
            let reqs: [(Predicate, usize, &[u16]); 1] = [(p, k, order.as_slice())];
            let (dict, tries) = inst.dense_snapshot(&reqs);
            let expected = sorted_rows(model, p, k, &order);
            match &tries[0] {
                None => assert!(expected.is_empty(), "dense trie missing {ctx}"),
                Some(t) => {
                    assert_eq!(decoded(&dict, t, k), expected, "dense rows {order:?} {ctx}");
                    // The trie's row permutation is a bijection on row ids.
                    let distinct: HashSet<u32> = t.perm().iter().copied().collect();
                    assert_eq!(distinct.len(), t.rows(), "perm bijection {ctx}");
                }
            }
        }
    }
}

/// Random insert/retract interleavings: after every operation the whole
/// invariant battery must hold — index round-trip in both directions,
/// `dom()` exactness (a retraction that removes a value's last occurrence
/// must remove it from `dom()`), columnar arena order, and dense
/// dictionary/trie consistency under both column orders.
/// Batches mix present atoms, duplicates, and absent ghosts, and the
/// reported removal count must equal the distinct present victims.
#[test]
fn instance_invariants_under_insert_retract_interleavings() {
    let mut rng = Rng::seed(0xde1e_7e57);
    for round in 0..24u32 {
        let mut inst = Instance::new();
        let mut model: Vec<GroundAtom> = Vec::new();
        let n_ops = 8 + rng.below(14);
        for op in 0..n_ops {
            let ctx = format!("retract-round {round} op {op}");
            if model.is_empty() || rng.chance(0.55) {
                for _ in 0..rng.range(1, 4) {
                    let a = arb_atom(&mut rng);
                    inst.insert(a.clone());
                    model_insert(&mut model, a);
                }
            } else {
                let n = rng.range(1, 3.min(model.len()) + 1);
                let mut victims: Vec<GroundAtom> = (0..n)
                    .map(|_| model.remove(rng.range(0, model.len())))
                    .collect();
                let distinct = victims.len();
                if rng.chance(0.4) {
                    // A ghost never inserted: must not affect the count.
                    victims.push(GroundAtom::new(
                        Predicate::new("U"),
                        vec![Value::named("ghost-victim")],
                    ));
                }
                if rng.chance(0.3) {
                    // A duplicate victim: counted once.
                    victims.push(victims[0].clone());
                }
                assert_eq!(
                    inst.retract_atoms(&victims),
                    distinct,
                    "removal count {ctx}"
                );
            }
            check_invariants(&inst, &model, &ctx);
        }
    }
}

/// Retracting every atom of a predicate and re-inserting fresh ones must
/// leave no stale index entries: the emptied tries are dropped, the
/// rebuilt ones decode to the sorted rows, and `dom()` forgets the values
/// that left with the atoms.
#[test]
fn retract_all_then_reinsert_rebuilds_clean_indexes() {
    let d = dom_pool();
    let e = Predicate::new("E");
    let mut inst = Instance::new();
    for (x, y) in [(0, 1), (1, 2), (2, 0)] {
        inst.insert(GroundAtom::new(e, vec![d[x], d[y]]));
    }
    // Warm both column orders, then delete everything.
    inst.dense_snapshot(&[(e, 2, &[0, 1]), (e, 2, &[1, 0])]);
    assert_eq!(inst.dense_stats().tries, 2);
    let all: Vec<GroundAtom> = inst.iter().cloned().collect();
    assert_eq!(inst.retract_atoms(&all), 3);
    assert_eq!(inst.len(), 0);
    assert!(inst.dom().is_empty(), "dom forgets retracted values");
    assert_eq!(inst.dense_stats().tries, 0, "emptied tries are dropped");

    let mut model = Vec::new();
    for (x, y) in [(3, 4), (4, 5)] {
        let a = GroundAtom::new(e, vec![d[x], d[y]]);
        inst.insert(a.clone());
        model_insert(&mut model, a);
    }
    check_invariants(&inst, &model, "post-reinsert");
}

/// The dense tries are the sorted indexes of the WCOJ path. Requesting
/// the same trie twice without an intervening insert is a cache hit: the
/// same `Arc`, no dictionary work. A second column order is a second trie.
/// An insert followed by a request encodes only the delta's fresh values
/// and still decodes to the sorted rows.
#[test]
fn sorted_index_maintenance_is_incremental() {
    let d = dom_pool();
    let e = Predicate::new("E");
    let mut inst = Instance::new();
    let mut model = Vec::new();
    for (x, y) in [(0, 1), (1, 2), (2, 0)] {
        let a = GroundAtom::new(e, vec![d[x], d[y]]);
        inst.insert(a.clone());
        model_insert(&mut model, a);
    }
    let fwd: [(Predicate, usize, &[u16]); 1] = [(e, 2, &[0, 1])];
    let rev: [(Predicate, usize, &[u16]); 1] = [(e, 2, &[1, 0])];

    assert_eq!(inst.dense_stats().tries, 0);
    let (dict, t0) = inst.dense_snapshot(&fwd);
    let t0 = t0[0].clone().expect("nonempty relation has a trie");
    assert_eq!(decoded(&dict, &t0, 2), sorted_rows(&model, e, 2, &[0, 1]));
    let s1 = inst.dense_stats();
    assert_eq!((s1.tries, s1.dict_misses), (1, 3));

    // Cache hit: same trie, no growth, no dictionary lookups.
    let (_, again) = inst.dense_snapshot(&fwd);
    assert!(Arc::ptr_eq(&t0, again[0].as_ref().unwrap()));
    let s2 = inst.dense_stats();
    assert_eq!(
        (s2.tries, s2.dict_hits, s2.dict_misses),
        (1, s1.dict_hits, 3)
    );

    // A second column order is a second trie over the same encoded table.
    inst.dense_snapshot(&rev);
    let s3 = inst.dense_stats();
    assert_eq!((s3.tries, s3.dict_misses), (2, 3));

    // Insert deltas + re-request: only the two fresh values are encoded.
    for (x, y) in [(3, 4), (0, 3), (4, 1)] {
        let a = GroundAtom::new(e, vec![d[x], d[y]]);
        inst.insert(a.clone());
        model_insert(&mut model, a);
    }
    let (dict, t1) = inst.dense_snapshot(&fwd);
    let t1 = t1[0].as_ref().unwrap();
    assert_eq!(decoded(&dict, t1, 2), sorted_rows(&model, e, 2, &[0, 1]));
    let s4 = inst.dense_stats();
    assert_eq!(s4.tries, 2);
    assert_eq!(s4.dict_misses, 5, "the delta must extend, not re-encode");
}

/// The acceptance counter test: a chase whose rounds keep inserting into a
/// predicate that the WCOJ executor scans. The executor's default (dense)
/// representation maintains the dictionary and tries incrementally: over
/// the whole run the dictionary encodes each distinct value exactly once
/// (every further sighting is a hit) and — because this workload's domain
/// is fixed from round 0 — never remaps a code.
#[test]
fn chase_extends_wcoj_indexes_incrementally() {
    // Transitive closure grows E every round; the cyclic triangle body
    // routes through the WCOJ executor, whose dense tries over E must be
    // extended as E grows.
    let tgds = parse_tgds(
        "E(X,Y), E(Y,Z) -> E(X,Z). \
         E(X,Y), E(Y,Z), E(Z,X) -> Tri(X,Y,Z)",
    )
    .unwrap();
    let d = dom_pool();
    let e = Predicate::new("E");
    let mut db = Instance::new();
    for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] {
        db.insert(GroundAtom::new(e, vec![d[x], d[y]]));
    }
    let result = chase(&db, &tgds, &ChaseBudget::unbounded());
    assert!(result.complete, "the full-TGD chase reaches a fixpoint");
    assert!(
        result.instance.pred_count(Predicate::new("Tri")) > 0,
        "the 5-cycle closure contains triangles"
    );
    let stats = result.instance.dense_stats();
    assert!(stats.tries > 0, "the WCOJ path built dense tries");
    assert_eq!(
        stats.dict_size, 5,
        "the dictionary holds exactly the five cycle vertices"
    );
    assert_eq!(
        stats.dict_misses, stats.dict_size,
        "each distinct value is encoded exactly once over the whole chase"
    );
    assert!(
        stats.dict_hits > 0,
        "later rounds re-encode known values as dictionary hits"
    );
    assert_eq!(
        stats.remaps, 0,
        "a fixed-domain chase never disturbs existing codes"
    );
}

/// Dictionary growth that introduces a value sorting *before* existing
/// entries must remap — and the remap is invisible to prior snapshots:
/// an old `(Dict, DenseTrie)` pair keeps decoding consistently
/// (copy-on-write), while the new pair is order-preserving over the grown
/// value set.
#[test]
fn dense_dictionary_remap_keeps_snapshots_consistent() {
    let e = Predicate::new("E");
    let mut inst = Instance::new();
    inst.insert(GroundAtom::named("E", &["m", "x"]));
    let order: [u16; 2] = [0, 1];
    let reqs: [(Predicate, usize, &[u16]); 1] = [(e, 2, &order)];
    let (dict1, tries1) = inst.dense_snapshot(&reqs);
    let t1 = tries1[0].clone().expect("nonempty relation has a trie");
    assert_eq!(inst.dense_stats().remaps, 0);
    assert_eq!(dict1.decode(t1.level(0)[0]), Value::named("m"));
    assert_eq!(dict1.decode(t1.level(1)[0]), Value::named("x"));

    // "a" sorts before every existing entry: growth must remap, not append.
    inst.insert(GroundAtom::named("E", &["a", "m"]));
    let (dict2, tries2) = inst.dense_snapshot(&reqs);
    let t2 = tries2[0].clone().expect("nonempty relation has a trie");
    assert!(
        inst.dense_stats().remaps >= 1,
        "prepended value forces a remap"
    );

    // The new dictionary is order-preserving and round-trips every value.
    let vals = ["a", "m", "x"].map(Value::named);
    let codes = vals.map(|v| dict2.code(v).expect("value is encoded"));
    assert!(
        codes.windows(2).all(|w| w[0] < w[1]),
        "codes follow value order"
    );
    for v in vals {
        assert_eq!(dict2.decode(dict2.code(v).unwrap()), v);
    }
    // The new trie decodes to the sorted row set.
    let rows: Vec<(Value, Value)> = (0..t2.rows())
        .map(|i| (dict2.decode(t2.level(0)[i]), dict2.decode(t2.level(1)[i])))
        .collect();
    assert_eq!(
        rows,
        vec![
            (Value::named("a"), Value::named("m")),
            (Value::named("m"), Value::named("x")),
        ]
    );
    // The *old* snapshot still decodes with its own dictionary: the remap
    // copied rather than mutated what readers hold.
    assert_eq!(dict1.decode(t1.level(0)[0]), Value::named("m"));
    assert_eq!(dict1.decode(t1.level(1)[0]), Value::named("x"));
}

/// Labelled nulls sort after every named constant, so a chase that keeps
/// inventing nulls grows the dictionary by pure appends: codes of existing
/// values are never disturbed.
#[test]
fn chase_nulls_append_to_dense_dictionary_without_remaps() {
    let tgds = parse_tgds("E(X,Y), E(Y,Z), E(Z,X) -> E(X,W)").unwrap();
    let e = Predicate::new("E");
    let d = dom_pool();
    let mut db = Instance::new();
    for (x, y) in [(0, 1), (1, 2), (2, 0)] {
        db.insert(GroundAtom::new(e, vec![d[x], d[y]]));
    }
    let result = chase(&db, &tgds, &ChaseBudget::unbounded());
    assert!(result.complete);
    let stats = result.instance.dense_stats();
    assert!(stats.tries > 0, "the cyclic body ran the dense WCOJ path");
    assert!(
        stats.dict_size > 3,
        "invented nulls joined the dictionary (size {})",
        stats.dict_size
    );
    assert_eq!(stats.remaps, 0, "null growth is append-only");
}
