//! Indexed tuple storage for the execution engine.
//!
//! The oracle evaluator (`recurs_datalog::eval`) rebuilds a hash index on the
//! inner side of every join, every fixpoint iteration. [`IndexedRelation`]
//! instead keeps *persistent* indexes: each is built once when a compiled
//! rule first asks for it, and afterwards maintained incrementally as derived
//! tuples are inserted. Across a long fixpoint this turns the per-iteration
//! cost of indexing from O(|relation|) into O(|delta|).

use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Value;
use std::collections::{BTreeMap, HashMap};

/// A hash index: key columns → (key values → ids of matching tuples).
type Index = HashMap<Box<[Value]>, Vec<u32>>;

/// Counters describing index maintenance work, for [`crate::EngineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCounters {
    /// Full index constructions (one per distinct key-column set).
    pub builds: u64,
    /// Incremental key insertions performed while merging deltas.
    pub updates: u64,
}

impl IndexCounters {
    fn absorb(&mut self, other: IndexCounters) {
        self.builds += other.builds;
        self.updates += other.updates;
    }
}

/// A relation stored as a tuple arena plus persistent hash indexes on the
/// column sets the compiled rules join on.
///
/// Tuple ids are `u32` arena slots; indexes store ids, not tuple copies, so
/// a tuple is owned exactly once however many indexes cover it. Removal
/// (used by incremental view maintenance) unlinks the id from every index
/// and frees the slot, which the next insert reuses, so the arena never
/// grows past the peak live count. An id therefore names its tuple only
/// until that tuple is removed; ids reach callers only through [`probe`]
/// and are resolved with [`tuple`] under the same shared borrow, so none is
/// held across a removal.
///
/// [`probe`]: IndexedRelation::probe
/// [`tuple`]: IndexedRelation::tuple
#[derive(Debug, Clone, Default)]
pub struct IndexedRelation {
    arity: usize,
    tuples: Vec<Option<Tuple>>,
    /// Arena slots freed by `remove`, reused by the next `insert`.
    free: Vec<u32>,
    ids: HashMap<Tuple, u32>,
    indexes: HashMap<Vec<usize>, Index>,
    counters: IndexCounters,
}

impl IndexedRelation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> IndexedRelation {
        IndexedRelation {
            arity,
            ..IndexedRelation::default()
        }
    }

    /// Copies a plain [`Relation`] into indexed storage.
    pub fn from_relation(rel: &Relation) -> IndexedRelation {
        let mut r = IndexedRelation::new(rel.arity());
        for t in rel.iter() {
            r.insert(t.clone());
        }
        r
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (live) tuples.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &[Value]) -> bool {
        self.ids.contains_key(t)
    }

    /// Inserts a tuple, updating every existing index. Returns true if the
    /// tuple was new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.len(),
            self.arity,
            "tuple width {} does not match relation arity {}",
            t.len(),
            self.arity
        );
        if self.ids.contains_key(&t) {
            return false;
        }
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                let Ok(id) = u32::try_from(self.tuples.len()) else {
                    // u32 ids are a storage invariant; 2^32 live tuples
                    // exceeds every budget this engine runs under.
                    panic!("IndexedRelation overflow: more than u32::MAX tuples");
                };
                self.tuples.push(None);
                id
            }
        };
        for (cols, index) in &mut self.indexes {
            let key: Box<[Value]> = cols.iter().map(|&c| t[c]).collect();
            index.entry(key).or_default().push(id);
            self.counters.updates += 1;
        }
        self.ids.insert(t.clone(), id);
        self.tuples[id as usize] = Some(t);
        true
    }

    /// Removes a tuple, unlinking its id from every existing index and
    /// freeing its arena slot for reuse. Returns true if the tuple was
    /// present.
    pub fn remove(&mut self, t: &[Value]) -> bool {
        let Some(id) = self.ids.remove(t) else {
            return false;
        };
        for (cols, index) in &mut self.indexes {
            let key: Box<[Value]> = cols.iter().map(|&c| t[c]).collect();
            if let Some(bucket) = index.get_mut(&key) {
                bucket.retain(|&i| i != id);
                if bucket.is_empty() {
                    index.remove(&key);
                }
            }
            self.counters.updates += 1;
        }
        self.tuples[id as usize] = None;
        self.free.push(id);
        true
    }

    /// Makes sure an index on `cols` exists, building it from the current
    /// tuples if not. Idempotent; subsequent inserts keep it fresh.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        if self.indexes.contains_key(cols) {
            return;
        }
        let mut index: Index = HashMap::new();
        for (id, t) in self.tuples.iter().enumerate() {
            let Some(t) = t else { continue };
            let key: Box<[Value]> = cols.iter().map(|&c| t[c]).collect();
            index.entry(key).or_default().push(id as u32);
        }
        self.indexes.insert(cols.to_vec(), index);
        self.counters.builds += 1;
    }

    /// The ids of tuples whose `cols` projection equals `key`. Returns
    /// `None` if no index on `cols` exists (compiled rules declare their
    /// indexes up front, so the driver treats that as an internal error);
    /// a present index with no matching key returns `Some(&[])`.
    pub fn probe(&self, cols: &[usize], key: &[Value]) -> Option<&[u32]> {
        let index = self.indexes.get(cols)?;
        Some(index.get(key).map_or(&[], Vec::as_slice))
    }

    /// The tuple with the given id. Ids only reach callers through `probe`,
    /// which never returns a removed tuple's id.
    pub fn tuple(&self, id: u32) -> &Tuple {
        match &self.tuples[id as usize] {
            Some(t) => t,
            None => unreachable!("probe returned the id of a removed tuple"),
        }
    }

    /// Iterates over all live tuples in arena-slot order (insertion order
    /// until a removal frees a slot for reuse).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter().flatten()
    }

    /// Copies the storage back into a plain [`Relation`].
    pub fn to_relation(&self) -> Relation {
        Relation::from_tuples(self.arity, self.iter().cloned())
    }

    /// Index-maintenance counters so far.
    pub fn counters(&self) -> IndexCounters {
        self.counters
    }

    /// Number of distinct indexes currently maintained.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Approximate working-set bytes: the arena's slots, the live tuples
    /// (the arena and the dedup set each own a copy of every one) and the
    /// index entries. An estimate for budget enforcement, not an allocator
    /// measurement.
    pub fn approx_bytes(&self) -> usize {
        let live = self.ids.len();
        let per_tuple = self.arity * std::mem::size_of::<Value>() + 48;
        let mut bytes = self.tuples.len() * std::mem::size_of::<Option<Tuple>>();
        bytes += 2 * live * per_tuple;
        for (cols, index) in &self.indexes {
            bytes += index.len() * (cols.len() * std::mem::size_of::<Value>() + 48);
            bytes += live * std::mem::size_of::<u32>();
        }
        bytes
    }
}

/// The engine's working database: predicate → indexed relation.
///
/// Built once from a [`recurs_datalog::database::Database`] snapshot; the
/// fixpoint driver reads EDB relations and reads/extends IDB relations
/// through it, then writes the IDB results back.
#[derive(Debug, Clone, Default)]
pub struct EngineDb {
    rels: BTreeMap<Symbol, IndexedRelation>,
}

impl EngineDb {
    /// An empty store.
    pub fn new() -> EngineDb {
        EngineDb::default()
    }

    /// Registers `pred` as an empty relation of the given arity if absent.
    pub fn declare(&mut self, pred: Symbol, arity: usize) {
        self.rels
            .entry(pred)
            .or_insert_with(|| IndexedRelation::new(arity));
    }

    /// Copies a relation into the store (replacing any existing one).
    pub fn load(&mut self, pred: Symbol, rel: &Relation) {
        self.rels.insert(pred, IndexedRelation::from_relation(rel));
    }

    /// Looks up a relation.
    pub fn get(&self, pred: Symbol) -> Option<&IndexedRelation> {
        self.rels.get(&pred)
    }

    /// Looks up a relation mutably.
    pub fn get_mut(&mut self, pred: Symbol) -> Option<&mut IndexedRelation> {
        self.rels.get_mut(&pred)
    }

    /// Sums the index counters of every relation.
    pub fn index_counters(&self) -> IndexCounters {
        let mut total = IndexCounters::default();
        for rel in self.rels.values() {
            total.absorb(rel.counters());
        }
        total
    }

    /// Total number of persistent indexes across all relations.
    pub fn index_count(&self) -> usize {
        self.rels.values().map(IndexedRelation::index_count).sum()
    }

    /// Sums [`IndexedRelation::approx_bytes`] across all relations.
    pub fn approx_bytes(&self) -> usize {
        self.rels.values().map(IndexedRelation::approx_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::relation::tuple_u64;

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    #[test]
    fn insert_dedupes_and_counts() {
        let mut r = IndexedRelation::new(2);
        assert!(r.insert(tuple_u64([1, 2])));
        assert!(!r.insert(tuple_u64([1, 2])));
        assert!(r.insert(tuple_u64([2, 3])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[v(1), v(2)]));
        assert!(!r.contains(&[v(9), v(9)]));
    }

    #[test]
    fn ensure_index_then_probe() {
        let mut r = IndexedRelation::from_relation(&Relation::from_pairs([(1, 2), (1, 3), (2, 3)]));
        r.ensure_index(&[0]);
        assert_eq!(r.probe(&[0], &[v(1)]).unwrap().len(), 2);
        assert_eq!(r.probe(&[0], &[v(2)]).unwrap().len(), 1);
        assert_eq!(r.probe(&[0], &[v(7)]).unwrap().len(), 0);
        // No index on column 1 was ever ensured.
        assert!(r.probe(&[1], &[v(2)]).is_none());
        assert_eq!(r.counters().builds, 1);
    }

    #[test]
    fn index_is_maintained_incrementally() {
        let mut r = IndexedRelation::new(2);
        r.ensure_index(&[1]);
        r.insert(tuple_u64([1, 2]));
        r.insert(tuple_u64([3, 2]));
        assert_eq!(r.probe(&[1], &[v(2)]).unwrap().len(), 2);
        // Two inserts, one index each: two incremental updates, no rebuild.
        assert_eq!(
            r.counters(),
            IndexCounters {
                builds: 1,
                updates: 2
            }
        );
        // Re-ensuring is a no-op.
        r.ensure_index(&[1]);
        assert_eq!(r.counters().builds, 1);
    }

    #[test]
    fn multi_column_index_keys() {
        let mut r = IndexedRelation::new(3);
        r.insert(tuple_u64([1, 2, 3]));
        r.insert(tuple_u64([1, 2, 4]));
        r.insert(tuple_u64([1, 5, 3]));
        r.ensure_index(&[0, 1]);
        assert_eq!(r.probe(&[0, 1], &[v(1), v(2)]).unwrap().len(), 2);
        let id = r.probe(&[0, 1], &[v(1), v(5)]).unwrap()[0];
        assert_eq!(&r.tuple(id)[..], &[v(1), v(5), v(3)]);
    }

    #[test]
    fn remove_unlinks_indexes_and_tombstones_the_slot() {
        let mut r = IndexedRelation::from_relation(&Relation::from_pairs([(1, 2), (1, 3), (2, 3)]));
        r.ensure_index(&[0]);
        r.ensure_index(&[1]);
        assert!(r.remove(&[v(1), v(2)]));
        assert!(!r.remove(&[v(1), v(2)]), "second remove is a no-op");
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&[v(1), v(2)]));
        assert_eq!(r.probe(&[0], &[v(1)]).unwrap().len(), 1);
        assert_eq!(r.probe(&[1], &[v(2)]).unwrap().len(), 0);
        // Iteration and round-tripping skip the tombstone.
        assert_eq!(r.iter().count(), 2);
        assert_eq!(r.to_relation(), Relation::from_pairs([(1, 3), (2, 3)]));
        // Reinsertion reuses the freed slot and is probe-visible.
        assert!(r.insert(tuple_u64([1, 2])));
        assert_eq!(r.probe(&[0], &[v(1)]).unwrap().len(), 2);
        assert_eq!(r.iter().count(), 3);
        assert_eq!(r.tuples.len(), 3);
    }

    #[test]
    fn remove_reinsert_churn_keeps_the_arena_and_estimate_flat() {
        let n = 50u64;
        let mut r =
            IndexedRelation::from_relation(&Relation::from_pairs((0..n).map(|i| (i % 7, i))));
        r.ensure_index(&[0]);
        r.ensure_index(&[1]);
        let start_bytes = r.approx_bytes();
        for i in 0..10_000u64 {
            let t = tuple_u64([i % n % 7, i % n]);
            assert!(r.remove(&t));
            assert_eq!(r.len() as u64, n - 1);
            assert!(r.insert(t));
        }
        assert_eq!(
            r.tuples.len() as u64,
            n,
            "arena grew past the peak live count"
        );
        assert_eq!(r.approx_bytes(), start_bytes);
        // Every probe returns exactly the live tuples for its key.
        for k in 0..7u64 {
            let mut got: Vec<Tuple> = r
                .probe(&[0], &[v(k)])
                .unwrap()
                .iter()
                .map(|&id| r.tuple(id).clone())
                .collect();
            got.sort();
            let mut want: Vec<Tuple> = (0..n)
                .filter(|i| i % 7 == k)
                .map(|i| tuple_u64([k, i]))
                .collect();
            want.sort();
            assert_eq!(got, want, "key {k}");
        }
        for i in 0..n {
            let ids = r.probe(&[1], &[v(i)]).unwrap();
            assert_eq!(ids.len(), 1);
            assert_eq!(r.tuple(ids[0]), &tuple_u64([i % 7, i]));
        }
    }

    #[test]
    fn round_trips_through_relation() {
        let rel = Relation::from_pairs([(1, 2), (2, 3), (3, 4)]);
        let r = IndexedRelation::from_relation(&rel);
        assert_eq!(r.to_relation(), rel);
    }

    #[test]
    fn engine_db_declares_and_sums_counters() {
        let mut db = EngineDb::new();
        let a = Symbol::intern("A");
        db.load(a, &Relation::from_pairs([(1, 2)]));
        db.declare(a, 2); // no-op: already present
        db.get_mut(a).unwrap().ensure_index(&[0]);
        assert_eq!(db.index_counters().builds, 1);
        assert_eq!(db.index_count(), 1);
        assert_eq!(db.get(a).unwrap().len(), 1);
    }
}
