//! Property indexes.
//!
//! A hash index maps `(label, property key)` → value → node ids, giving O(1)
//! exact-match seeks for queries like `MATCH (a:AS {asn: 2497})`. Range
//! scans and ordered walks merge the partitions' sorted heads lazily (see
//! [`IndexSet::walk`]), so no second, sorted copy of an index is ever
//! kept. Indexes are maintained incrementally by [`crate::graph::Graph`]
//! on every mutation.
//!
//! Storage is partitioned for copy-on-write cloning: each index's entries
//! are split across power-of-two hash partitions held behind `Arc`s, so
//! cloning an [`IndexSet`] copies partition pointers and an index update
//! path-copies only the one partition holding the touched key. Partitions
//! reshard (double) when they average more than `RESHARD_TARGET` keys,
//! keeping the path-copy cost bounded as the graph grows — the same
//! discipline as [`crate::page::PAGE_SIZE`]-record pages in the node and
//! relationship tables. The on-disk layout is unchanged from the flat
//! store: a single key-sorted pair list per index.

use crate::graph::{NodeId, NodeRecord};
use crate::intern::Sym;
use crate::props::Props;
use crate::value::ValueKey;
use serde::{Content, Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::btree_map;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;

/// Reshard when an index averages more than this many keys per partition.
///
/// Kept deliberately small: a partition copy deep-clones its `ValueKey`s
/// (string allocations), so the per-touched-partition write amplification
/// is what this bounds. At 8 keys a path-copy is about a microsecond even
/// from cold memory; the cost of the longer partition table (one `Arc`
/// bump per partition per graph clone, walked sequentially) is noise by
/// comparison.
const RESHARD_TARGET: usize = 8;

/// Indexed node ids of an index, counted by the class of their key.
///
/// Maintained in O(1) per index update, so a planner can ask whether a
/// walk of the index in key order is also a walk in value order:
/// `ValueKey`'s derived `Ord` agrees with [`crate::Value::order_key_cmp`]
/// among integer keys of magnitude at most 2^53 (beyond that, the value
/// order compares as `f64` and ties distinct integers), and among string
/// keys. Float keys order by bit pattern and mixed classes by variant, so
/// an index holding any of those never qualifies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexKeyStats {
    /// Node ids in the index.
    pub ids: usize,
    /// Ids under an integer key `i` with `|i| <= 2^53`.
    pub exact_int_ids: usize,
    /// Ids under a string key.
    pub str_ids: usize,
}

impl IndexKeyStats {
    /// Do all ids sit under keys whose `ValueKey` order is their value
    /// order ([`crate::Value::order_key_cmp`])?
    pub fn orders_like_values(&self) -> bool {
        self.exact_int_ids == self.ids || self.str_ids == self.ids
    }

    /// The per-class counter of `key`, if its class has one.
    fn class(&mut self, key: &ValueKey) -> Option<&mut usize> {
        match key {
            ValueKey::Int(i) if i.unsigned_abs() <= 1 << 53 => Some(&mut self.exact_int_ids),
            ValueKey::Str(_) => Some(&mut self.str_ids),
            _ => None,
        }
    }

    fn add(&mut self, key: &ValueKey, n: usize) {
        self.ids += n;
        if let Some(c) = self.class(key) {
            *c += n;
        }
    }

    fn sub(&mut self, key: &ValueKey, n: usize) {
        self.ids -= n;
        if let Some(c) = self.class(key) {
            *c -= n;
        }
    }
}

/// One hash index over `(label, key)`, hash-partitioned by value key.
#[derive(Debug, Clone)]
struct HashIndex {
    /// Power-of-two partition table; a key lives in partition
    /// `hash(key) & (len - 1)`.
    partitions: Vec<Arc<BTreeMap<ValueKey, Vec<NodeId>>>>,
    /// Total distinct keys across partitions, driving resharding.
    keys: usize,
    /// Ids per key class.
    stats: IndexKeyStats,
}

impl Default for HashIndex {
    fn default() -> Self {
        HashIndex {
            partitions: vec![Arc::new(BTreeMap::new())],
            keys: 0,
            stats: IndexKeyStats::default(),
        }
    }
}

fn partition_of(key: &ValueKey, count: usize) -> usize {
    // DefaultHasher::new() is fixed-keyed, so placement is deterministic
    // within a build; placement is never persisted (snapshots store the
    // flat sorted pair list), so cross-build determinism is not needed.
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish() as usize & (count - 1)
}

impl HashIndex {
    fn insert(&mut self, key: ValueKey, id: NodeId) {
        let p = partition_of(&key, self.partitions.len());
        let part = Arc::make_mut(&mut self.partitions[p]);
        let new_key = !part.contains_key(&key);
        if let Err(pos) = part.get(&key).map_or(Err(0), |b| b.binary_search(&id)) {
            self.stats.add(&key, 1);
            part.entry(key).or_default().insert(pos, id);
        }
        if new_key {
            self.keys += 1;
            if self.keys > self.partitions.len() * RESHARD_TARGET {
                self.reshard();
            }
        }
    }

    fn remove(&mut self, key: &ValueKey, id: NodeId) {
        let p = partition_of(key, self.partitions.len());
        // Probe through the shared reference first so a miss (unknown key
        // or id not in its bucket) never forces a partition copy.
        match self.partitions[p].get(key) {
            Some(bucket) if bucket.binary_search(&id).is_ok() => {}
            _ => return,
        }
        let bucket = Arc::make_mut(&mut self.partitions[p])
            .get_mut(key)
            .expect("checked above");
        let pos = bucket.binary_search(&id).expect("checked above");
        bucket.remove(pos);
        self.stats.sub(key, 1);
        // The bucket stays (possibly empty): lookups on a once-indexed key
        // must keep answering `Some(vec![])`, not "no index".
    }

    fn get(&self, key: &ValueKey) -> Option<&Vec<NodeId>> {
        self.partitions[partition_of(key, self.partitions.len())].get(key)
    }

    /// Doubles the partition count, redistributing every key. O(index),
    /// but amortized O(1) per insert by the doubling schedule.
    fn reshard(&mut self) {
        let count = self.partitions.len() * 2;
        let mut parts: Vec<BTreeMap<ValueKey, Vec<NodeId>>> =
            (0..count).map(|_| BTreeMap::new()).collect();
        for part in &self.partitions {
            for (k, ids) in part.iter() {
                parts[partition_of(k, count)].insert(k.clone(), ids.clone());
            }
        }
        self.partitions = parts.into_iter().map(Arc::new).collect();
    }

    /// The `(key, ids)` pairs with keys within `(lo, hi)`, in key order
    /// (descending when `descending`), produced lazily by a k-way merge
    /// over the partitions' sorted heads: O(partitions) to start, then
    /// O(log partitions) per pair yielded.
    fn walk<'a>(
        &'a self,
        lo: Bound<&ValueKey>,
        hi: Bound<&ValueKey>,
        descending: bool,
    ) -> Walk<'a> {
        let mut ranges: Vec<btree_map::Range<'a, ValueKey, Vec<NodeId>>> = self
            .partitions
            .iter()
            .map(|p| p.range::<ValueKey, _>((lo, hi)))
            .collect();
        let heads = ranges
            .iter_mut()
            .enumerate()
            .filter_map(|(part, r)| Head::next(r, part, descending))
            .collect::<Vec<_>>()
            .into();
        Walk {
            ranges,
            heads,
            descending,
        }
    }
}

/// The next unyielded pair of one partition, ordered so the
/// [`BinaryHeap`] (a max-heap) pops the next pair of the walk: the
/// smallest key first, or the largest when descending. Keys are distinct
/// across partitions, so the key alone orders heads.
struct Head<'a> {
    key: &'a ValueKey,
    ids: &'a Vec<NodeId>,
    part: usize,
    descending: bool,
}

impl<'a> Head<'a> {
    fn next(
        r: &mut btree_map::Range<'a, ValueKey, Vec<NodeId>>,
        part: usize,
        descending: bool,
    ) -> Option<Head<'a>> {
        let (key, ids) = if descending { r.next_back() } else { r.next() }?;
        Some(Head {
            key,
            ids,
            part,
            descending,
        })
    }
}

impl PartialEq for Head<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Head<'_> {}

impl PartialOrd for Head<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let c = self.key.cmp(other.key);
        if self.descending {
            c
        } else {
            c.reverse()
        }
    }
}

/// A lazy ordered walk over one index (see [`HashIndex::walk`]).
struct Walk<'a> {
    ranges: Vec<btree_map::Range<'a, ValueKey, Vec<NodeId>>>,
    heads: BinaryHeap<Head<'a>>,
    descending: bool,
}

impl<'a> Iterator for Walk<'a> {
    type Item = (&'a ValueKey, &'a Vec<NodeId>);

    fn next(&mut self) -> Option<Self::Item> {
        let head = self.heads.pop()?;
        if let Some(next) = Head::next(&mut self.ranges[head.part], head.part, self.descending) {
            self.heads.push(next);
        }
        Some((head.key, head.ids))
    }
}

impl Serialize for HashIndex {
    /// Serializes the partition-merged, key-sorted pair list — exactly the
    /// layout the pre-partitioned store wrote (`{"entries": [[k, ids]…]}`),
    /// so snapshot files carry no partition geometry.
    fn serialize(&self) -> Content {
        let pairs: Vec<_> = self
            .walk(Bound::Unbounded, Bound::Unbounded, false)
            .collect();
        Content::Map(vec![("entries".to_string(), Serialize::serialize(&pairs))])
    }
}

impl Deserialize for HashIndex {
    fn deserialize(c: &Content) -> Result<Self, serde::Error> {
        let entries = c
            .get("entries")
            .ok_or_else(|| serde::Error::custom("index missing `entries`"))?;
        let pairs: Vec<(ValueKey, Vec<NodeId>)> = Deserialize::deserialize(entries)?;
        let mut idx = HashIndex::default();
        for (key, ids) in pairs {
            idx.bulk_insert(key, ids);
        }
        Ok(idx)
    }
}

impl HashIndex {
    /// Inserts a whole bucket (deserialization / backfill path). Keeps
    /// empty buckets, which `insert` would never create but `remove`
    /// leaves behind and snapshots faithfully persist.
    fn bulk_insert(&mut self, key: ValueKey, ids: Vec<NodeId>) {
        let p = partition_of(&key, self.partitions.len());
        self.stats.add(&key, ids.len());
        let replaced = Arc::make_mut(&mut self.partitions[p]).insert(key.clone(), ids);
        if let Some(old) = &replaced {
            self.stats.sub(&key, old.len());
        }
        if replaced.is_none() {
            self.keys += 1;
            if self.keys > self.partitions.len() * RESHARD_TARGET {
                self.reshard();
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| {
                p.iter()
                    .map(|(k, ids)| {
                        key_heap_bytes(k)
                            + ids.capacity() * std::mem::size_of::<NodeId>()
                            // BTreeMap node overhead, roughly.
                            + 48
                    })
                    .sum::<usize>()
            })
            .sum::<usize>()
            + self.partitions.capacity()
                * std::mem::size_of::<Arc<BTreeMap<ValueKey, Vec<NodeId>>>>()
    }
}

fn key_heap_bytes(k: &ValueKey) -> usize {
    std::mem::size_of::<ValueKey>()
        + match k {
            ValueKey::Str(s) => s.len(),
            ValueKey::List(items) => items.iter().map(key_heap_bytes).sum(),
            ValueKey::Map(entries) => entries
                .iter()
                .map(|(name, v)| name.len() + key_heap_bytes(v))
                .sum(),
            _ => 0,
        }
}

/// The set of all indexes on a graph.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct IndexSet {
    // serde_json requires string keys for maps; keep a Vec of entries.
    indexes: Vec<((Sym, String), HashIndex)>,
    #[serde(skip)]
    lookup_cache: HashMap<(Sym, String), usize>,
}

impl IndexSet {
    fn slot(&self, label: Sym, key: &str) -> Option<usize> {
        if let Some(&i) = self.lookup_cache.get(&(label, key.to_string())) {
            return Some(i);
        }
        self.indexes
            .iter()
            .position(|((l, k), _)| *l == label && k == key)
    }

    /// Creates an index and backfills it from `entries`. Idempotent: an
    /// existing index is rebuilt from scratch.
    pub fn create(
        &mut self,
        label: Sym,
        key: &str,
        entries: impl Iterator<Item = (NodeId, ValueKey)>,
    ) {
        let mut idx = HashIndex::default();
        for (id, vk) in entries {
            idx.insert(vk, id);
        }
        match self.slot(label, key) {
            Some(i) => self.indexes[i].1 = idx,
            None => {
                self.lookup_cache
                    .insert((label, key.to_string()), self.indexes.len());
                self.indexes.push(((label, key.to_string()), idx));
            }
        }
    }

    /// Exact lookup; `None` if no such index.
    pub fn lookup(&self, label: Sym, key: &str, value: &ValueKey) -> Option<Vec<NodeId>> {
        let i = self.slot(label, key)?;
        Some(self.indexes[i].1.get(value).cloned().unwrap_or_default())
    }

    /// Range lookup over the index's ordered keys; `None` if no such index.
    pub fn range(
        &self,
        label: Sym,
        key: &str,
        lo: Option<(ValueKey, bool)>,
        hi: Option<(ValueKey, bool)>,
    ) -> Option<Vec<NodeId>> {
        let i = self.slot(label, key)?;
        let lo_bound = match &lo {
            None => Bound::Unbounded,
            Some((k, true)) => Bound::Included(k),
            Some((k, false)) => Bound::Excluded(k),
        };
        let hi_bound = match &hi {
            None => Bound::Unbounded,
            Some((k, true)) => Bound::Included(k),
            Some((k, false)) => Bound::Excluded(k),
        };
        let mut out = Vec::new();
        for (_, ids) in self.indexes[i].1.walk(lo_bound, hi_bound, false) {
            out.extend(ids.iter().copied());
        }
        Some(out)
    }

    /// Every indexed node id in key order (descending when `descending`),
    /// ids ascending within a key; lazily merged, so a caller that stops
    /// early pays only for what it took. `None` if no such index.
    pub fn walk(
        &self,
        label: Sym,
        key: &str,
        descending: bool,
    ) -> Option<impl Iterator<Item = NodeId> + '_> {
        let i = self.slot(label, key)?;
        let pairs = self.indexes[i]
            .1
            .walk(Bound::Unbounded, Bound::Unbounded, descending);
        Some(pairs.flat_map(|(_, ids)| ids.iter().copied()))
    }

    /// The index's ids counted by key class; `None` if no such index.
    pub fn key_stats(&self, label: Sym, key: &str) -> Option<IndexKeyStats> {
        let i = self.slot(label, key)?;
        Some(self.indexes[i].1.stats)
    }

    /// Does an index exist?
    pub fn exists(&self, label: Sym, key: &str) -> bool {
        self.slot(label, key).is_some()
    }

    /// All `(label, key)` pairs.
    pub fn list(&self) -> Vec<(Sym, String)> {
        self.indexes.iter().map(|(k, _)| k.clone()).collect()
    }

    /// Load-time check (see `GraphPayload::validate` in `graph.rs`):
    /// every index hangs off one of the graph's labels, given as their
    /// validated `label_members`, and holds exactly the live nodes that
    /// carry its label and key, each under the key of its value, in
    /// sorted buckets. Anything else would leave an id that the
    /// maintenance hooks below can never remove.
    pub(crate) fn validate<'a>(
        &self,
        label_members: &[Vec<NodeId>],
        node: impl Fn(NodeId) -> Option<&'a NodeRecord>,
    ) -> Result<(), String> {
        let n_labels = label_members.len();
        for ((label, key), idx) in &self.indexes {
            let Some(members) = label_members.get(label.0 as usize) else {
                return Err(format!(
                    "index on `{key}` has label symbol {} outside the {n_labels}-label table",
                    label.0
                ));
            };
            let mut entries = 0;
            for (value, ids) in idx.partitions.iter().flat_map(|p| p.iter()) {
                if !ids.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!(
                        "index on `{key}`: the bucket of {value:?} is not sorted and distinct"
                    ));
                }
                let held = |id: &NodeId| {
                    node(*id).is_some_and(|n| {
                        n.labels.binary_search(label).is_ok()
                            && n.props.get(key).is_some_and(|v| ValueKey::of(v) == *value)
                    })
                };
                if let Some(id) = ids.iter().find(|id| !held(id)) {
                    return Err(format!(
                        "index on `{key}` names node {id} under {value:?}, but that node is \
                         absent or lacks the label or the value"
                    ));
                }
                entries += ids.len();
            }
            let keyed = members
                .iter()
                .filter(|&&id| node(id).is_some_and(|n| n.props.get(key).is_some()))
                .count();
            if entries != keyed {
                return Err(format!(
                    "index on `{key}` omits nodes that carry its label and key"
                ));
            }
        }
        Ok(())
    }

    // ---- maintenance hooks called by Graph ----

    pub(crate) fn on_node_added(&mut self, id: NodeId, labels: &[Sym], props: &Props) {
        for ((label, key), idx) in &mut self.indexes {
            if labels.contains(label) {
                if let Some(v) = props.get(key) {
                    idx.insert(ValueKey::of(v), id);
                }
            }
        }
    }

    pub(crate) fn on_node_removed(&mut self, id: NodeId, labels: &[Sym], props: &Props) {
        for ((label, key), idx) in &mut self.indexes {
            if labels.contains(label) {
                if let Some(v) = props.get(key) {
                    idx.remove(&ValueKey::of(v), id);
                }
            }
        }
    }

    pub(crate) fn on_prop_changed(
        &mut self,
        id: NodeId,
        labels: &[Sym],
        key: &str,
        old: Option<&crate::value::Value>,
        new: &crate::value::Value,
    ) {
        for ((label, ikey), idx) in &mut self.indexes {
            if ikey == key && labels.contains(label) {
                if let Some(old) = old {
                    idx.remove(&ValueKey::of(old), id);
                }
                if !new.is_null() {
                    idx.insert(ValueKey::of(new), id);
                }
            }
        }
    }

    // ---- copy-on-write accounting ----

    /// Total hash partitions across all indexes.
    pub(crate) fn partition_count(&self) -> usize {
        self.indexes
            .iter()
            .map(|(_, idx)| idx.partitions.len())
            .sum()
    }

    /// Partitions whose `Arc` is shared with another `IndexSet` clone.
    pub(crate) fn shared_partition_count(&self) -> usize {
        self.indexes
            .iter()
            .flat_map(|(_, idx)| idx.partitions.iter())
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }

    /// Approximate heap bytes reachable from all indexes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.indexes
            .iter()
            .map(|((_, key), idx)| key.len() + idx.heap_bytes())
            .sum()
    }

    /// Materializes private copies of all shared partitions (bench-only;
    /// see [`crate::page::PagedVec::make_owned`]).
    pub(crate) fn make_owned(&mut self) {
        for (_, idx) in &mut self.indexes {
            for p in &mut idx.partitions {
                Arc::make_mut(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn create_lookup_roundtrip() {
        let mut set = IndexSet::default();
        let label = Sym(0);
        set.create(
            label,
            "asn",
            vec![
                (NodeId(1), ValueKey::of(&Value::Int(10))),
                (NodeId(2), ValueKey::of(&Value::Int(20))),
            ]
            .into_iter(),
        );
        assert_eq!(
            set.lookup(label, "asn", &ValueKey::of(&Value::Int(10))),
            Some(vec![NodeId(1)])
        );
        assert_eq!(
            set.lookup(label, "asn", &ValueKey::of(&Value::Int(99))),
            Some(vec![])
        );
        assert_eq!(
            set.lookup(Sym(1), "asn", &ValueKey::of(&Value::Int(10))),
            None
        );
    }

    #[test]
    fn duplicate_values_share_bucket() {
        let mut set = IndexSet::default();
        set.create(
            Sym(0),
            "cc",
            vec![
                (NodeId(1), ValueKey::of(&Value::from("JP"))),
                (NodeId(2), ValueKey::of(&Value::from("JP"))),
            ]
            .into_iter(),
        );
        assert_eq!(
            set.lookup(Sym(0), "cc", &ValueKey::of(&Value::from("JP"))),
            Some(vec![NodeId(1), NodeId(2)])
        );
    }

    #[test]
    fn walk_merges_partitions_in_key_order_both_ways() {
        let mut set = IndexSet::default();
        // Three ids per key, inserted out of order, over many partitions.
        set.create(
            Sym(0),
            "rank",
            (0..600u64)
                .rev()
                .map(|i| (NodeId(i), ValueKey::of(&Value::Int((i % 200) as i64)))),
        );
        assert!(set.partition_count() > 1);
        let asc: Vec<NodeId> = set.walk(Sym(0), "rank", false).unwrap().collect();
        let want: Vec<NodeId> = (0..200u64)
            .flat_map(|k| [k, k + 200, k + 400])
            .map(NodeId)
            .collect();
        assert_eq!(asc, want, "keys ascending, ids ascending within a key");
        let desc: Vec<NodeId> = set.walk(Sym(0), "rank", true).unwrap().collect();
        let want: Vec<NodeId> = (0..200u64)
            .rev()
            .flat_map(|k| [k, k + 200, k + 400])
            .map(NodeId)
            .collect();
        assert_eq!(desc, want, "keys descending, ids still ascending");
        assert_eq!(set.walk(Sym(0), "rank", true).unwrap().take(4).count(), 4);
        assert!(set.walk(Sym(1), "rank", false).is_none());
        let k20 = ValueKey::of(&Value::Int(20));
        let k22 = ValueKey::of(&Value::Int(22));
        assert_eq!(
            set.range(Sym(0), "rank", Some((k20, false)), Some((k22, true))),
            Some([21, 221, 421, 22, 222, 422].map(NodeId).to_vec())
        );
    }

    #[test]
    fn key_stats_track_every_update() {
        let mut set = IndexSet::default();
        let key = |v: Value| ValueKey::of(&v);
        set.create(
            Sym(0),
            "k",
            (0..20u64).map(|i| (NodeId(i), key(Value::Int(i as i64)))),
        );
        let stats = |set: &IndexSet| set.key_stats(Sym(0), "k").unwrap();
        assert_eq!(
            stats(&set),
            IndexKeyStats {
                ids: 20,
                exact_int_ids: 20,
                str_ids: 0
            }
        );
        assert!(stats(&set).orders_like_values());
        // A whole float keys as an integer; a fractional one does not.
        set.on_prop_changed(
            NodeId(1),
            &[Sym(0)],
            "k",
            Some(&Value::Int(1)),
            &Value::Float(7.0),
        );
        assert!(stats(&set).orders_like_values());
        set.on_prop_changed(
            NodeId(2),
            &[Sym(0)],
            "k",
            Some(&Value::Int(2)),
            &Value::Float(2.5),
        );
        assert!(!stats(&set).orders_like_values());
        set.on_node_removed(NodeId(2), &[Sym(0)], &crate::props!("k" => 2.5));
        assert_eq!(stats(&set).ids, 19);
        assert!(stats(&set).orders_like_values());
        // Integers past 2^53 tie under the f64 value order.
        set.on_node_added(
            NodeId(50),
            &[Sym(0)],
            &crate::props!("k" => (1i64 << 53) + 1),
        );
        assert!(!stats(&set).orders_like_values());
        set.on_node_removed(
            NodeId(50),
            &[Sym(0)],
            &crate::props!("k" => (1i64 << 53) + 1),
        );
        // Re-adding an indexed id is a no-op; so is removing a missing one.
        set.on_node_added(NodeId(3), &[Sym(0)], &crate::props!("k" => 3i64));
        set.on_node_removed(NodeId(99), &[Sym(0)], &crate::props!("k" => 3i64));
        assert_eq!(stats(&set).ids, 19);
        // Reload rebuilds the counters from the buckets.
        let back: IndexSet =
            serde::Deserialize::deserialize(&serde::Serialize::serialize(&set)).unwrap();
        assert_eq!(back.key_stats(Sym(0), "k"), Some(stats(&set)));
    }

    #[test]
    fn recreate_rebuilds() {
        let mut set = IndexSet::default();
        set.create(
            Sym(0),
            "x",
            vec![(NodeId(1), ValueKey::of(&Value::Int(1)))].into_iter(),
        );
        set.create(
            Sym(0),
            "x",
            vec![(NodeId(2), ValueKey::of(&Value::Int(2)))].into_iter(),
        );
        assert_eq!(
            set.lookup(Sym(0), "x", &ValueKey::of(&Value::Int(1))),
            Some(vec![])
        );
        assert_eq!(
            set.lookup(Sym(0), "x", &ValueKey::of(&Value::Int(2))),
            Some(vec![NodeId(2)])
        );
    }

    #[test]
    fn resharding_preserves_lookups_and_order() {
        let mut set = IndexSet::default();
        // Well past one reshard (RESHARD_TARGET keys/partition).
        set.create(
            Sym(0),
            "asn",
            (0..2000u64).map(|i| (NodeId(i), ValueKey::of(&Value::Int(i as i64)))),
        );
        let parts = set.partition_count();
        assert!(parts > 1, "expected reshard, still at {parts} partition(s)");
        assert!(parts.is_power_of_two());
        for probe in [0i64, 777, 1999] {
            assert_eq!(
                set.lookup(Sym(0), "asn", &ValueKey::of(&Value::Int(probe))),
                Some(vec![NodeId(probe as u64)])
            );
        }
        // Range output stays globally key-ordered despite hash placement.
        let lo = ValueKey::of(&Value::Int(100));
        let hi = ValueKey::of(&Value::Int(110));
        let ids = set
            .range(Sym(0), "asn", Some((lo, true)), Some((hi, false)))
            .unwrap();
        assert_eq!(ids, (100..110).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn clone_shares_partitions_and_updates_path_copy() {
        let mut set = IndexSet::default();
        set.create(
            Sym(0),
            "asn",
            (0..2000u64).map(|i| (NodeId(i), ValueKey::of(&Value::Int(i as i64)))),
        );
        let snap = set.clone();
        assert_eq!(set.shared_partition_count(), set.partition_count());
        set.on_prop_changed(
            NodeId(5),
            &[Sym(0)],
            "asn",
            Some(&Value::Int(5)),
            &Value::Int(100_000),
        );
        // At most two partitions (old key's, new key's) were copied.
        assert!(set.shared_partition_count() >= set.partition_count() - 2);
        assert_eq!(
            snap.lookup(Sym(0), "asn", &ValueKey::of(&Value::Int(5))),
            Some(vec![NodeId(5)]),
            "snapshot saw the mutation"
        );
        assert_eq!(
            set.lookup(Sym(0), "asn", &ValueKey::of(&Value::Int(5))),
            Some(vec![])
        );
    }

    #[test]
    fn serde_layout_is_flat_sorted_pairs() {
        let mut set = IndexSet::default();
        set.create(
            Sym(0),
            "asn",
            (0..600u64)
                .rev()
                .map(|i| (NodeId(i), ValueKey::of(&Value::Int(i as i64)))),
        );
        let c = serde::Serialize::serialize(&set);
        let back: IndexSet = serde::Deserialize::deserialize(&c).unwrap();
        assert_eq!(serde::Serialize::serialize(&back), c, "not canonical");
        assert_eq!(
            back.lookup(Sym(0), "asn", &ValueKey::of(&Value::Int(599))),
            Some(vec![NodeId(599)])
        );
        assert!(back.partition_count() > 1, "reload skipped resharding");
    }
}
