//! Instances and databases: indexed sets of ground atoms.

use crate::atom::GroundAtom;
use crate::columnar::PredColumns;
use crate::dense::{DenseExport, DenseStats, DenseStore, DenseTrie, Dict};
use crate::schema::{Predicate, Schema};
use crate::value::Value;
use gtgd_treewidth::Graph;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Shared static-empty candidate list: the miss path of every index
/// accessor returns this without touching (or hashing into) any map.
const EMPTY_IDS: &[usize] = &[];

/// A finitely materialized instance (the paper's *database* when finite by
/// construction; also used to hold finite prefixes of infinite chase
/// results).
///
/// Maintains secondary indexes by predicate and by `(predicate, position,
/// value)` so homomorphism search and chase trigger matching get selective
/// candidate lists. Insertion order is preserved and deduplicated, so
/// iteration is deterministic.
#[derive(Debug, Default)]
pub struct Instance {
    atoms: Vec<GroundAtom>,
    /// Row-level hash indexes (dedup map, per-predicate and per-position
    /// candidate lists, domain), built lazily from `atoms` on first
    /// demand. Bulk construction ([`Instance::from_unique_atoms`] — the
    /// snapshot load path) skips them entirely; the first lookup or
    /// mutation pays one linear build. Interior mutability like `dense`
    /// below: reads go through `&Instance`.
    rows: OnceLock<RowIndexes>,
    /// Columnar mirror of the tuples, per `(predicate, arity)` — the
    /// storage the worst-case-optimal join path scans (see
    /// [`crate::columnar`]). Lazily mirrored from `atoms` on first
    /// demand, like `rows`.
    columns: OnceLock<ColumnMap>,
    /// Dense-dictionary encoded mirror of `columns` plus flat sorted trie
    /// levels — the storage the WCOJ path scans (see [`crate::dense`]).
    /// Built lazily, extended incrementally. Interior mutability: tries
    /// are built on demand through `&Instance` (query execution never
    /// holds `&mut`).
    dense: DenseStore,
}

/// The columnar arenas keyed by `(predicate, arity)`.
type ColumnMap = HashMap<(Predicate, u16), PredColumns>;

/// Clones a lazily-built cell, preserving built-ness.
fn clone_cell<T: Clone>(cell: &OnceLock<T>) -> OnceLock<T> {
    match cell.get() {
        Some(v) => OnceLock::from(v.clone()),
        None => OnceLock::new(),
    }
}

impl Clone for Instance {
    fn clone(&self) -> Instance {
        Instance {
            atoms: self.atoms.clone(),
            rows: clone_cell(&self.rows),
            columns: clone_cell(&self.columns),
            dense: self.dense.clone(),
        }
    }
}

/// The row-level hash indexes of an [`Instance`]: the dedup map, the
/// per-predicate and per-`(predicate, position, value)` candidate lists,
/// and the first-occurrence domain. Kept together so they can be built
/// lazily in one pass over the atom vector.
#[derive(Debug, Clone, Default)]
struct RowIndexes {
    index_of: HashMap<GroundAtom, usize>,
    by_pred: HashMap<Predicate, Vec<usize>>,
    by_pred_pos_val: HashMap<(Predicate, u16, Value), Vec<usize>>,
    dom: Vec<Value>,
    dom_set: HashSet<Value>,
}

impl RowIndexes {
    /// Indexes one atom already appended to the atom vector at `idx`.
    /// Shared by the lazy one-pass build and incremental insertion.
    fn note(&mut self, atom: &GroundAtom, idx: usize) {
        self.by_pred.entry(atom.predicate).or_default().push(idx);
        for (pos, &v) in atom.args.iter().enumerate() {
            let pos = u16::try_from(pos).expect("arity fits u16");
            self.by_pred_pos_val
                .entry((atom.predicate, pos, v))
                .or_default()
                .push(idx);
            if self.dom_set.insert(v) {
                self.dom.push(v);
            }
        }
        self.index_of.insert(atom.clone(), idx);
    }

    /// One-pass build over a deduplicated atom vector, pre-sized so the
    /// maps do not regrow once per atom.
    fn build(atoms: &[GroundAtom]) -> RowIndexes {
        let cells: usize = atoms.iter().map(|a| a.args.len()).sum();
        let mut r = RowIndexes {
            index_of: HashMap::with_capacity(atoms.len()),
            by_pred_pos_val: HashMap::with_capacity(cells),
            ..RowIndexes::default()
        };
        for (idx, a) in atoms.iter().enumerate() {
            r.note(a, idx);
        }
        r
    }
}

impl Instance {
    /// The row indexes, built on first demand.
    fn rows(&self) -> &RowIndexes {
        self.rows.get_or_init(|| RowIndexes::build(&self.atoms))
    }

    /// The row indexes for mutation: builds first if still deferred.
    fn rows_mut(&mut self) -> &mut RowIndexes {
        if self.rows.get().is_none() {
            let built = RowIndexes::build(&self.atoms);
            let _ = self.rows.set(built);
        }
        self.rows.get_mut().expect("row indexes just built")
    }

    /// The columnar arenas, mirrored from the atom vector on first demand.
    fn columns_map(&self) -> &ColumnMap {
        self.columns
            .get_or_init(|| Self::build_columns(&self.atoms))
    }

    /// The columnar arenas for mutation: builds first if still deferred.
    fn columns_mut(&mut self) -> &mut ColumnMap {
        if self.columns.get().is_none() {
            let built = Self::build_columns(&self.atoms);
            let _ = self.columns.set(built);
        }
        self.columns.get_mut().expect("columns just built")
    }

    /// One sequential pass appending every tuple into its arena.
    fn build_columns(atoms: &[GroundAtom]) -> ColumnMap {
        let mut m = ColumnMap::new();
        for atom in atoms {
            let arity = u16::try_from(atom.args.len()).expect("arity fits u16");
            m.entry((atom.predicate, arity))
                .or_default()
                .push(&atom.args);
        }
        m
    }

    /// The empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Builds an instance from atoms, deduplicating.
    pub fn from_atoms(atoms: impl IntoIterator<Item = GroundAtom>) -> Instance {
        let mut i = Instance::new();
        for a in atoms {
            i.insert(a);
        }
        i
    }

    /// Builds an instance from atoms the caller guarantees are already
    /// distinct — the snapshot load path, whose atom section was written
    /// from an instance and is therefore duplicate-free. Only the atom
    /// vector is materialized; the row-level hash indexes and the
    /// columnar arenas stay deferred until first demand, off the load
    /// path. Feeding duplicates violates the contract and leaves lookups
    /// over-counting.
    pub fn from_unique_atoms(atoms: Vec<GroundAtom>) -> Instance {
        Instance {
            atoms,
            ..Instance::new()
        }
    }

    /// Inserts an atom; returns `true` if it was new.
    pub fn insert(&mut self, atom: GroundAtom) -> bool {
        let idx = self.atoms.len();
        let rows = self.rows_mut();
        if rows.index_of.contains_key(&atom) {
            return false;
        }
        rows.note(&atom, idx);
        let arity = u16::try_from(atom.args.len()).expect("arity fits u16");
        self.columns_mut()
            .entry((atom.predicate, arity))
            .or_default()
            .push(&atom.args);
        self.atoms.push(atom);
        true
    }

    /// Inserts a batch of atoms, deduplicating; returns how many were new.
    ///
    /// The bulk-load counterpart of [`Instance::insert`]: the primary
    /// stores (atom vector, dedup map, per-predicate and per-position
    /// candidate lists) are reserved once for the whole batch and the
    /// columnar arenas are grown per relation, so a 10⁶-atom ingest pays
    /// amortized map growth instead of a rehash/regrow cadence driven by
    /// per-atom inserts. The lazy dense mirror (dictionary and tries) is
    /// untouched until the *next demand after* the batch — one
    /// delta-extend over the whole batch, never one per row.
    /// Ingestion sinks and the CLI bulk loaders feed this; the snapshot
    /// load path goes further and skips index construction entirely via
    /// [`Instance::from_unique_atoms`].
    pub fn insert_batch(&mut self, atoms: impl IntoIterator<Item = GroundAtom>) -> usize {
        let batch: Vec<GroundAtom> = atoms.into_iter().collect();
        if batch.is_empty() {
            return 0;
        }
        self.atoms.reserve(batch.len());
        let cells: usize = batch.iter().map(|a| a.args.len()).sum();
        {
            let rows = self.rows_mut();
            rows.index_of.reserve(batch.len());
            rows.by_pred_pos_val.reserve(cells);
        }
        // Pre-size each touched relation's arena and candidate list once.
        let mut per_rel: HashMap<(Predicate, u16), usize> = HashMap::new();
        for a in &batch {
            let arity = u16::try_from(a.args.len()).expect("arity fits u16");
            *per_rel.entry((a.predicate, arity)).or_default() += 1;
        }
        {
            let cols = self.columns_mut();
            for (&(p, ar), &n) in &per_rel {
                if let Some(pc) = cols.get_mut(&(p, ar)) {
                    pc.reserve(n);
                }
            }
        }
        {
            let rows = self.rows_mut();
            for (&(p, _), &n) in &per_rel {
                rows.by_pred.entry(p).or_default().reserve(n);
            }
        }
        let mut added = 0;
        for a in batch {
            added += usize::from(self.insert(a));
        }
        added
    }

    /// Removes one atom; returns `true` if it was present. See
    /// [`Instance::retract_atoms`] for the cost model — batch retractions
    /// through that method when removing more than one atom.
    pub fn retract(&mut self, atom: &GroundAtom) -> bool {
        self.retract_atoms(std::slice::from_ref(atom)) == 1
    }

    /// Removes a batch of atoms; returns how many were actually present.
    /// Atoms absent from the instance are ignored.
    ///
    /// Every store except the atom vector is append-only by design, so
    /// retraction is a **rebuild, not a tombstone**: the primary stores
    /// (dedup map, per-predicate and per-position indexes, domain,
    /// columnar arenas) are reconstructed from the survivors in one pass
    /// over the instance (`O(total cells)`), which keeps row ids dense and
    /// every accessor exact — `dom()` contains precisely the values of
    /// surviving atoms, with no tombstone filtering on any read path. The
    /// lazy dense mirror is cheaper to fix: it drops only the touched
    /// `(predicate, arity)` relations while keeping the dictionary.
    pub fn retract_atoms(&mut self, atoms: &[GroundAtom]) -> usize {
        let present = &self.rows().index_of;
        let doomed: HashSet<&GroundAtom> =
            atoms.iter().filter(|a| present.contains_key(*a)).collect();
        if doomed.is_empty() {
            return 0;
        }
        let removed = doomed.len();
        // Relations that lose rows: their dense mirrors must be dropped.
        let touched: HashSet<(Predicate, u16)> = doomed
            .iter()
            .map(|a| {
                let arity = u16::try_from(a.args.len()).expect("arity fits u16");
                (a.predicate, arity)
            })
            .collect();
        // Rebuild the primary stores from the survivors, in insertion
        // order.
        let survivors: Vec<GroundAtom> = std::mem::take(&mut self.atoms)
            .into_iter()
            .filter(|a| !doomed.contains(a))
            .collect();
        self.rows = OnceLock::new();
        self.columns = OnceLock::new();
        for a in survivors {
            self.insert(a);
        }
        self.dense.invalidate_relations(&touched);
        removed
    }

    /// Reserves capacity for `n` further atoms in the primary stores (the
    /// atom vector and the dedup map), so bulk loads — chase round
    /// materialization, [`Instance::extend_from`] — do not rehash/regrow
    /// once per atom.
    pub fn reserve_additional(&mut self, n: usize) {
        self.atoms.reserve(n);
        self.rows_mut().index_of.reserve(n);
    }

    /// Whether the atom is present.
    pub fn contains(&self, atom: &GroundAtom) -> bool {
        self.rows().index_of.contains_key(atom)
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the instance has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterates over atoms in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &GroundAtom> {
        self.atoms.iter()
    }

    /// The atom at `idx` (insertion order).
    pub fn atom(&self, idx: usize) -> &GroundAtom {
        &self.atoms[idx]
    }

    /// All atoms in insertion order as one slice — the bulk accessor used
    /// by compiled query plans to resolve candidate indexes without
    /// per-atom bounds checks.
    pub fn atoms(&self) -> &[GroundAtom] {
        &self.atoms
    }

    /// Selectivity of predicate `p`: how many atoms carry it. Equivalent
    /// to `atoms_with_pred(p).len()` without touching the slice.
    pub fn pred_count(&self, p: Predicate) -> usize {
        self.rows().by_pred.get(&p).map_or(0, |v| v.len())
    }

    /// Selectivity of the `(p, pos, v)` index probed by the compiled
    /// kernel: how many atoms with predicate `p` have value `v` at
    /// argument position `pos`.
    pub fn index_count(&self, p: Predicate, pos: usize, v: Value) -> usize {
        let rows = self.rows();
        if rows.by_pred_pos_val.is_empty() {
            return 0;
        }
        let pos = u16::try_from(pos).expect("arity fits u16");
        rows.by_pred_pos_val
            .get(&(p, pos, v))
            .map_or(0, |ids| ids.len())
    }

    /// `dom(I)`: distinct constants in first-occurrence order.
    pub fn dom(&self) -> &[Value] {
        &self.rows().dom
    }

    /// Whether `v ∈ dom(I)`.
    pub fn dom_contains(&self, v: Value) -> bool {
        self.rows().dom_set.contains(&v)
    }

    /// Indexes of atoms with the given predicate.
    pub fn atoms_with_pred(&self, p: Predicate) -> &[usize] {
        let rows = self.rows();
        if rows.by_pred.is_empty() {
            return EMPTY_IDS;
        }
        rows.by_pred.get(&p).map_or(EMPTY_IDS, |v| v.as_slice())
    }

    /// Indexes of atoms with predicate `p` whose argument at `pos` is `v`.
    pub fn atoms_matching(&self, p: Predicate, pos: usize, v: Value) -> &[usize] {
        let rows = self.rows();
        if rows.by_pred_pos_val.is_empty() {
            return EMPTY_IDS;
        }
        let pos = u16::try_from(pos).expect("arity fits u16");
        rows.by_pred_pos_val
            .get(&(p, pos, v))
            .map_or(EMPTY_IDS, |ids| ids.as_slice())
    }

    /// The columnar tuple arena for predicate `p` at the given arity, if
    /// any tuple was inserted (see [`crate::columnar::PredColumns`]).
    pub fn columns(&self, p: Predicate, arity: usize) -> Option<&PredColumns> {
        let arity = u16::try_from(arity).expect("arity fits u16");
        self.columns_map().get(&(p, arity))
    }

    /// A consistent dense-encoded snapshot serving one query: the global
    /// order-preserving dictionary plus, per request
    /// `(predicate, arity, column order)`, the flat sorted trie — `None`
    /// when the relation is empty. Builds or delta-extends stale parts
    /// first; current parts cost one read-lock hold and `Arc` clones (see
    /// [`crate::dense::DenseStore::snapshot`]).
    pub fn dense_snapshot(
        &self,
        reqs: &[(Predicate, usize, &[u16])],
    ) -> (Arc<Dict>, Vec<Option<Arc<DenseTrie>>>) {
        let reqs16: Vec<(Predicate, u16, &[u16])> = reqs
            .iter()
            .map(|&(p, a, o)| (p, u16::try_from(a).expect("arity fits u16"), o))
            .collect();
        self.dense.snapshot(self.columns_map(), &reqs16)
    }

    /// Counters of the dense store (the append-mostly growth contract:
    /// `remaps` stays at zero while every fresh value — e.g. every
    /// chase-invented null — sorts after the existing maximum).
    pub fn dense_stats(&self) -> DenseStats {
        self.dense.stats()
    }

    /// Exports the dense-encoded store in portable form, for snapshot
    /// persistence (see [`crate::dense::DenseExport`]).
    pub fn export_dense(&self) -> DenseExport {
        self.dense.export_state()
    }

    /// Re-installs an exported dense store after validating the dictionary
    /// order and every encoded cell against the live arenas; invalid
    /// sections are skipped and rebuild lazily. Only a pristine (never
    /// dense-queried) instance accepts the import. Returns
    /// `(tables installed, tries installed)`.
    pub fn install_dense(&self, export: &DenseExport) -> (usize, usize) {
        if export.dict.is_empty() && export.tables.is_empty() && export.tries.is_empty() {
            return (0, 0);
        }
        self.dense.install_state(export, self.columns_map())
    }

    /// The distinct predicates appearing in the instance, in first-use order.
    pub fn predicates(&self) -> Vec<Predicate> {
        let mut seen = Vec::new();
        for a in &self.atoms {
            if !seen.contains(&a.predicate) {
                seen.push(a.predicate);
            }
        }
        seen
    }

    /// Infers the schema realized by this instance (each used predicate with
    /// the arity of its first occurrence). Panics if a predicate is used at
    /// two different arities.
    pub fn schema(&self) -> Schema {
        let mut s = Schema::new();
        for a in &self.atoms {
            s.add(a.predicate, a.arity());
        }
        s
    }

    /// `I|T`: the restriction to atoms mentioning only constants of `keep`.
    pub fn restrict_to(&self, keep: &HashSet<Value>) -> Instance {
        Instance::from_atoms(
            self.atoms
                .iter()
                .filter(|a| a.args.iter().all(|v| keep.contains(v)))
                .cloned(),
        )
    }

    /// Restriction to atoms over the given predicates.
    pub fn restrict_predicates(&self, keep: &HashSet<Predicate>) -> Instance {
        Instance::from_atoms(
            self.atoms
                .iter()
                .filter(|a| keep.contains(&a.predicate))
                .cloned(),
        )
    }

    /// Applies a value mapping to every atom, producing a new instance (the
    /// homomorphic image when `f` is a homomorphism).
    pub fn map_values(&self, f: impl Fn(Value) -> Value) -> Instance {
        Instance::from_atoms(self.atoms.iter().map(|a| a.map(&f)))
    }

    /// Inserts all atoms of `other`. Capacity is reserved up front — in
    /// the primary stores and per predicate — so the bulk load does not
    /// regrow them once per atom.
    pub fn extend_from(&mut self, other: &Instance) {
        self.reserve_additional(other.len());
        let mine = self.rows_mut();
        for (p, ids) in &other.rows().by_pred {
            mine.by_pred.entry(*p).or_default().reserve(ids.len());
        }
        for a in other.iter() {
            self.insert(a.clone());
        }
    }

    /// Whether the tuple `vs` is *guarded* in the instance: some atom
    /// mentions every value of `vs`.
    pub fn is_guarded(&self, vs: &[Value]) -> bool {
        match vs.first() {
            None => !self.is_empty(),
            Some(&v0) => {
                // Scan only atoms containing v0 at some position.
                self.atoms
                    .iter()
                    .any(|a| a.mentions(v0) && vs.iter().all(|&v| a.mentions(v)))
            }
        }
    }

    /// All maximal guarded sets: for each atom, `dom(α)` — deduplicated and
    /// restricted to the ⊆-maximal ones. Used by the guarded unraveling and
    /// the OMQ→CQS reduction.
    pub fn maximal_guarded_sets(&self) -> Vec<Vec<Value>> {
        let mut sets: Vec<Vec<Value>> = Vec::new();
        for a in &self.atoms {
            let mut d = a.dom();
            d.sort_unstable();
            if !sets.contains(&d) {
                sets.push(d);
            }
        }
        let maximal: Vec<Vec<Value>> = sets
            .iter()
            .filter(|s| {
                !sets
                    .iter()
                    .any(|t| t.len() > s.len() && s.iter().all(|v| t.contains(v)))
            })
            .cloned()
            .collect();
        maximal
    }

    /// The Gaifman graph `G_I`: vertices are `dom(I)` (in domain order),
    /// edges join constants co-occurring in an atom. Returns the graph and
    /// the vertex-id → value mapping.
    pub fn gaifman(&self) -> (Graph, Vec<Value>) {
        let dom = &self.rows().dom;
        let mut id_of: HashMap<Value, usize> = HashMap::new();
        for (i, &v) in dom.iter().enumerate() {
            id_of.insert(v, i);
        }
        let mut g = Graph::new(dom.len());
        for a in &self.atoms {
            let d = a.dom();
            for (i, &u) in d.iter().enumerate() {
                for &v in &d[i + 1..] {
                    g.add_edge(id_of[&u], id_of[&v]);
                }
            }
        }
        (g, dom.clone())
    }

    /// A constant is *isolated* if exactly one atom mentions it
    /// (Section 6 / Theorem 6.1).
    pub fn is_isolated(&self, v: Value) -> bool {
        self.atoms.iter().filter(|a| a.mentions(v)).count() == 1
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|a| other.contains(a))
    }
}

impl Eq for Instance {}

impl FromIterator<GroundAtom> for Instance {
    fn from_iter<T: IntoIterator<Item = GroundAtom>>(iter: T) -> Instance {
        Instance::from_atoms(iter)
    }
}

impl std::fmt::Display for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    #[test]
    fn insert_dedup_and_indexes() {
        let mut i = Instance::new();
        assert!(i.insert(GroundAtom::named("R", &["a", "b"])));
        assert!(!i.insert(GroundAtom::named("R", &["a", "b"])));
        assert!(i.insert(GroundAtom::named("R", &["b", "c"])));
        assert_eq!(i.len(), 2);
        assert_eq!(i.atoms_with_pred(Predicate::new("R")).len(), 2);
        assert_eq!(i.atoms_matching(Predicate::new("R"), 0, v("a")).len(), 1);
        assert_eq!(i.atoms_matching(Predicate::new("R"), 1, v("b")).len(), 1);
        assert!(i.atoms_matching(Predicate::new("R"), 0, v("z")).is_empty());
        assert_eq!(i.dom(), &[v("a"), v("b"), v("c")]);
    }

    #[test]
    fn selectivity_accessors_match_slices() {
        let mut i = Instance::new();
        i.insert(GroundAtom::named("R", &["a", "b"]));
        i.insert(GroundAtom::named("R", &["a", "c"]));
        i.insert(GroundAtom::named("S", &["a"]));
        let r = Predicate::new("R");
        assert_eq!(i.atoms().len(), i.len());
        assert_eq!(i.pred_count(r), i.atoms_with_pred(r).len());
        assert_eq!(i.pred_count(Predicate::new("T")), 0);
        assert_eq!(
            i.index_count(r, 0, v("a")),
            i.atoms_matching(r, 0, v("a")).len()
        );
        assert_eq!(i.index_count(r, 1, v("z")), 0);
    }

    #[test]
    fn set_equality_ignores_order() {
        let i1 = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("P", &["c"]),
        ]);
        let i2 = Instance::from_atoms([
            GroundAtom::named("P", &["c"]),
            GroundAtom::named("R", &["a", "b"]),
        ]);
        assert_eq!(i1, i2);
    }

    #[test]
    fn restriction_by_values() {
        let i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["b", "c"]),
            GroundAtom::named("P", &["a"]),
        ]);
        let keep: HashSet<Value> = [v("a"), v("b")].into_iter().collect();
        let r = i.restrict_to(&keep);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&GroundAtom::named("R", &["a", "b"])));
        assert!(r.contains(&GroundAtom::named("P", &["a"])));
    }

    #[test]
    fn gaifman_graph_of_triangle_fact() {
        let i = Instance::from_atoms([GroundAtom::named("T", &["a", "b", "c"])]);
        let (g, vals) = i.gaifman();
        assert_eq!(vals.len(), 3);
        assert_eq!(g.edge_count(), 3); // a 3-ary atom induces a triangle
    }

    #[test]
    fn guardedness_checks() {
        let i = Instance::from_atoms([
            GroundAtom::named("T", &["a", "b", "c"]),
            GroundAtom::named("R", &["c", "d"]),
        ]);
        assert!(i.is_guarded(&[v("a"), v("c")]));
        assert!(!i.is_guarded(&[v("a"), v("d")]));
        assert!(i.is_guarded(&[]));
        let max = i.maximal_guarded_sets();
        assert_eq!(max.len(), 2);
    }

    #[test]
    fn isolation() {
        let i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["b", "c"]),
        ]);
        assert!(i.is_isolated(v("a")));
        assert!(!i.is_isolated(v("b")));
    }

    #[test]
    fn map_values_applies_substitution() {
        let i = Instance::from_atoms([GroundAtom::named("R", &["a", "b"])]);
        let j = i.map_values(|x| if x == v("a") { v("z") } else { x });
        assert!(j.contains(&GroundAtom::named("R", &["z", "b"])));
    }

    #[test]
    fn columnar_arena_mirrors_insertion_order() {
        let mut i = Instance::new();
        i.insert(GroundAtom::named("R", &["a", "b"]));
        i.insert(GroundAtom::named("R", &["a", "b"])); // duplicate: no row
        i.insert(GroundAtom::named("R", &["c", "d"]));
        i.insert(GroundAtom::named("S", &["e"]));
        let r = i.columns(Predicate::new("R"), 2).unwrap();
        assert_eq!(r.rows(), 2);
        assert_eq!(r.col(0), &[v("a"), v("c")]);
        assert_eq!(r.col(1), &[v("b"), v("d")]);
        assert!(i.columns(Predicate::new("R"), 3).is_none());
        assert!(i.columns(Predicate::new("T"), 2).is_none());
    }

    #[test]
    fn insert_batch_matches_per_atom_insert() {
        use crate::rng::Rng;
        let mut rng = Rng::seed(0xba7c4);
        for case in 0..20 {
            let n = rng.range(0, 60);
            let atoms: Vec<GroundAtom> = (0..n)
                .map(|_| {
                    let p = ["R", "S", "T"][rng.range(0, 3)];
                    let arity = rng.range(0, 4);
                    let args: Vec<&str> = (0..arity)
                        .map(|_| ["a", "b", "c", "d"][rng.range(0, 4)])
                        .collect();
                    GroundAtom::named(p, &args)
                })
                .collect();
            let mut batched = Instance::new();
            // Split the batch so one call lands on a non-empty instance.
            let mid = atoms.len() / 2;
            let added_1 = batched.insert_batch(atoms[..mid].iter().cloned());
            let added_2 = batched.insert_batch(atoms[mid..].iter().cloned());
            let mut serial = Instance::new();
            let mut added_serial = 0;
            for a in &atoms {
                added_serial += usize::from(serial.insert(a.clone()));
            }
            assert_eq!(added_1 + added_2, added_serial, "case {case}");
            assert_eq!(batched, serial, "case {case}");
            assert_eq!(batched.dom(), serial.dom(), "case {case}");
            // Insertion order (hence row ids) is identical.
            assert!(batched.iter().eq(serial.iter()), "case {case}");
            for p in ["R", "S", "T"].map(Predicate::new) {
                assert_eq!(batched.pred_count(p), serial.pred_count(p));
            }
        }
    }

    #[test]
    fn reserve_and_extend_preserve_contents() {
        let mut i = Instance::new();
        i.reserve_additional(16);
        i.insert(GroundAtom::named("R", &["a", "b"]));
        let other = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["b", "c"]),
            GroundAtom::named("P", &["a"]),
        ]);
        i.extend_from(&other);
        assert_eq!(i.len(), 3);
        assert_eq!(i.pred_count(Predicate::new("R")), 2);
        assert_eq!(i.pred_count(Predicate::new("P")), 1);
    }

    #[test]
    fn retract_rebuilds_every_index() {
        let mut i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["b", "c"]),
            GroundAtom::named("P", &["a"]),
        ]);
        assert!(i.retract(&GroundAtom::named("R", &["a", "b"])));
        assert!(
            !i.retract(&GroundAtom::named("R", &["a", "b"])),
            "already gone"
        );
        assert_eq!(i.len(), 2);
        assert!(!i.contains(&GroundAtom::named("R", &["a", "b"])));
        let r = Predicate::new("R");
        assert_eq!(i.pred_count(r), 1);
        assert!(i.atoms_matching(r, 0, v("a")).is_empty());
        assert_eq!(i.atoms_matching(r, 0, v("b")).len(), 1);
        // dom() is exact: "a" survives through P(a), nothing else changes.
        assert_eq!(i.dom(), &[v("b"), v("c"), v("a")]);
        // Columnar arena shrank and re-densified.
        let rc = i.columns(r, 2).unwrap();
        assert_eq!(rc.rows(), 1);
        assert_eq!(rc.col(0), &[v("b")]);
    }

    #[test]
    fn retract_drops_values_no_atom_mentions() {
        let mut i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("P", &["c"]),
        ]);
        assert_eq!(i.retract_atoms(&[GroundAtom::named("R", &["a", "b"])]), 1);
        assert_eq!(i.dom(), &[v("c")]);
        assert!(!i.dom_contains(v("a")));
        assert!(!i.dom_contains(v("b")));
    }

    #[test]
    fn retract_batch_counts_only_present_atoms() {
        let mut i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("P", &["a"]),
        ]);
        let n = i.retract_atoms(&[
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["z", "z"]), // absent
            GroundAtom::named("P", &["a"]),
        ]);
        assert_eq!(n, 2);
        assert!(i.is_empty());
        assert!(i.dom().is_empty());
        assert_eq!(i.retract_atoms(&[GroundAtom::named("P", &["a"])]), 0);
    }

    #[test]
    fn dense_snapshot_after_retraction_matches_fresh_build() {
        let mut i = Instance::new();
        for (a, b) in [("b", "x"), ("a", "z"), ("c", "y")] {
            i.insert(GroundAtom::named("E", &[a, b]));
        }
        i.insert(GroundAtom::named("P", &["p"]));
        let e = Predicate::new("E");
        let p = Predicate::new("P");
        let reqs: [(Predicate, usize, &[u16]); 2] = [(e, 2, &[0, 1]), (p, 1, &[0])];
        let (_, before) = i.dense_snapshot(&reqs);
        i.retract(&GroundAtom::named("E", &["a", "z"]));
        let (dict, tries) = i.dense_snapshot(&reqs);
        let fresh = Instance::from_atoms(i.iter().cloned());
        let (fdict, ftries) = fresh.dense_snapshot(&reqs);
        let decode = |d: &Dict, t: &DenseTrie, arity: usize| -> Vec<Vec<Value>> {
            (0..t.rows())
                .map(|r| (0..arity).map(|l| d.decode(t.level(l)[r])).collect())
                .collect()
        };
        for (k, arity) in [(0, 2), (1, 1)] {
            assert_eq!(
                decode(&dict, tries[k].as_ref().unwrap(), arity),
                decode(&fdict, ftries[k].as_ref().unwrap(), arity)
            );
        }
        // Untouched relation P kept its trie through the invalidation; the
        // dictionary may keep the stale "z" but never loses a surviving
        // value.
        assert!(Arc::ptr_eq(
            before[1].as_ref().unwrap(),
            tries[1].as_ref().unwrap()
        ));
        for a in i.iter() {
            for &val in &a.args {
                assert!(dict.code(val).is_some());
            }
        }
    }

    #[test]
    fn schema_inference() {
        let i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("P", &["a"]),
        ]);
        let s = i.schema();
        assert_eq!(s.arity(Predicate::new("R")), Some(2));
        assert_eq!(s.arity(Predicate::new("P")), Some(1));
        assert_eq!(s.max_arity(), 2);
    }
}
