//! The in-memory property-graph store.
//!
//! Nodes carry one or more labels and a property map; relationships are
//! directed, typed edges with their own properties. Adjacency is stored on
//! each node (outgoing and incoming relationship lists) so pattern expansion
//! is O(degree). Label membership and any explicitly created property
//! indexes are maintained incrementally on mutation.
//!
//! Storage is paged and copy-on-write (see [`crate::page`]): node and
//! relationship records live in `Arc`-shared fixed-size pages, label
//! membership in `Arc`-shared shards, index entries in `Arc`-shared
//! partitions. `Graph::clone` is therefore a pointer-copy of the page
//! tables — microseconds, independent of graph size — and mutating a
//! clone path-copies only the pages the mutation touches.

use crate::index::{IndexKeyStats, IndexSet};
use crate::intern::{Interner, Sym};
use crate::page::{LabelSet, PagedVec};
use crate::props::Props;
use crate::stats::MemoryStats;
use crate::value::{Value, ValueKey};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node. Stable for the lifetime of the graph; never reused
/// after deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u64);

/// Identifier of a relationship. Stable; never reused after deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RelId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}
impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Traversal direction relative to a start node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Follow relationships where the start node is the source.
    Outgoing,
    /// Follow relationships where the start node is the target.
    Incoming,
    /// Follow relationships in either orientation.
    Both,
}

impl Direction {
    /// The opposite direction (`Both` is its own opposite).
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Outgoing => Direction::Incoming,
            Direction::Incoming => Direction::Outgoing,
            Direction::Both => Direction::Both,
        }
    }
}

/// Stored node record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeRecord {
    /// The node's id.
    pub id: NodeId,
    /// Interned label symbols, sorted.
    pub labels: Vec<Sym>,
    /// Node properties.
    pub props: Props,
    pub(crate) out: Vec<RelId>,
    pub(crate) inc: Vec<RelId>,
}

/// Stored relationship record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelRecord {
    /// The relationship's id.
    pub id: RelId,
    /// Interned relationship-type symbol.
    pub ty: Sym,
    /// Source node.
    pub src: NodeId,
    /// Target node.
    pub dst: NodeId,
    /// Relationship properties.
    pub props: Props,
}

impl RelRecord {
    /// The endpoint that is not `node`. Returns `dst` for self-loops.
    pub fn other(&self, node: NodeId) -> NodeId {
        if self.src == node {
            self.dst
        } else {
            self.src
        }
    }
}

/// Errors raised by graph mutations and lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The referenced node does not exist (deleted or never created).
    NodeNotFound(NodeId),
    /// The referenced relationship does not exist.
    RelNotFound(RelId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeNotFound(id) => write!(f, "node {id} not found"),
            GraphError::RelNotFound(id) => write!(f, "relationship {id} not found"),
        }
    }
}
impl std::error::Error for GraphError {}

/// The property-graph store.
///
/// Deserialization rejects a payload whose cross-references dangle
/// (see [`crate::snapshot`]), so a loaded graph upholds the same
/// invariants as one built through the mutation API.
#[derive(Debug, Default, Clone, Serialize)]
pub struct Graph {
    nodes: PagedVec<NodeRecord>,
    rels: PagedVec<RelRecord>,
    labels: Interner,
    rel_types: Interner,
    /// label symbol → sharded sorted set of node ids carrying it.
    label_members: Vec<LabelSet>,
    indexes: IndexSet,
    live_nodes: usize,
    live_rels: usize,
    /// Monotonic write epoch: bumped by every successful mutation, so
    /// caches keyed on query text can detect that previously recorded
    /// results may be stale (see `chatiyp-core`'s query cache).
    ///
    /// Persisted by snapshots so a save → load round-trip cannot rewind
    /// the counter a cache already observed.
    epoch: u64,
}

/// The serialized shape of [`Graph`], field for field, except that label
/// membership is read as plain id lists: no [`LabelSet`] shard is
/// allocated for an id before [`GraphPayload::validate`] has checked it
/// against the node table.
#[derive(Deserialize)]
struct GraphPayload {
    nodes: PagedVec<NodeRecord>,
    rels: PagedVec<RelRecord>,
    labels: Interner,
    rel_types: Interner,
    label_members: Vec<Vec<NodeId>>,
    indexes: IndexSet,
    live_nodes: usize,
    live_rels: usize,
    epoch: u64,
}

impl Deserialize for Graph {
    fn deserialize(c: &serde::Content) -> Result<Self, serde::Error> {
        GraphPayload::deserialize(c)?
            .validate()
            .map_err(serde::Error::custom)
    }
}

impl GraphPayload {
    /// Checks every cross-reference a disk payload carries, then builds
    /// the graph. A payload that passes upholds the invariants the
    /// mutation API maintains, so no later read or write can trip over a
    /// dangling id:
    ///
    /// * each record sits in the slot its id names, and the live counts
    ///   match the tables;
    /// * node labels and relationship types are symbols of their
    ///   interners (node labels sorted and distinct);
    /// * every relationship's endpoints are live nodes, and the adjacency
    ///   lists hold each live relationship exactly once per direction, on
    ///   the endpoint it names;
    /// * label membership lists exactly the nodes that carry each label;
    /// * each index holds exactly the live nodes with its label and key,
    ///   under the key of their value.
    fn validate(self) -> Result<Graph, String> {
        let (n_labels, n_types) = (self.labels.len(), self.rel_types.len());
        let node = |id: NodeId| self.nodes.get(id.0 as usize);

        let mut live_rels = 0;
        for (slot, rec) in self.rels.iter().enumerate() {
            let Some(rec) = rec else { continue };
            live_rels += 1;
            let id = RelId(slot as u64);
            ensure(rec.id == id, || {
                format!("relationship slot {id} holds {}", rec.id)
            })?;
            ensure((rec.ty.0 as usize) < n_types, || {
                format!(
                    "relationship {id}: type symbol {} outside the {n_types}-type table",
                    rec.ty.0
                )
            })?;
            for end in [rec.src, rec.dst] {
                ensure(node(end).is_some(), || {
                    format!("relationship {id}: endpoint {end} is not a live node")
                })?;
            }
        }
        ensure(live_rels == self.live_rels, || {
            format!(
                "live_rels is {} but {live_rels} relationships are live",
                self.live_rels
            )
        })?;

        // Each adjacency entry must name a live relationship that has
        // this node as its endpoint, and no relationship may be listed
        // twice; with one entry per live relationship in each direction,
        // every relationship is then listed by both of its endpoints.
        let mut listed = [vec![false; self.rels.len()], vec![false; self.rels.len()]];
        let mut entries = [0, 0];
        let (mut live_nodes, mut label_refs) = (0, 0);
        for (slot, rec) in self.nodes.iter().enumerate() {
            let Some(rec) = rec else { continue };
            live_nodes += 1;
            let id = NodeId(slot as u64);
            ensure(rec.id == id, || format!("node slot {id} holds {}", rec.id))?;
            ensure(rec.labels.windows(2).all(|w| w[0] < w[1]), || {
                format!("node {id}: labels are not sorted and distinct")
            })?;
            for sym in &rec.labels {
                ensure((sym.0 as usize) < n_labels, || {
                    format!(
                        "node {id}: label symbol {} outside the {n_labels}-label table",
                        sym.0
                    )
                })?;
            }
            label_refs += rec.labels.len();
            for (dir, list) in [&rec.out, &rec.inc].into_iter().enumerate() {
                for &rid in list {
                    let ends_here = self
                        .rels
                        .get(rid.0 as usize)
                        .is_some_and(|r| id == if dir == 0 { r.src } else { r.dst });
                    let once =
                        ends_here && !std::mem::replace(&mut listed[dir][rid.0 as usize], true);
                    ensure(once, || {
                        format!(
                            "node {id}: adjacency names relationship {rid}, which is not \
                             a live relationship listed once on this endpoint"
                        )
                    })?;
                }
                entries[dir] += list.len();
            }
        }
        ensure(live_nodes == self.live_nodes, || {
            format!(
                "live_nodes is {} but {live_nodes} nodes are live",
                self.live_nodes
            )
        })?;
        ensure(entries == [live_rels, live_rels], || {
            "a relationship is missing from its endpoints' adjacency".to_string()
        })?;

        ensure(self.label_members.len() == n_labels, || {
            format!(
                "{} label member sets for {n_labels} labels",
                self.label_members.len()
            )
        })?;
        let mut label_members = Vec::with_capacity(n_labels);
        for (sym, ids) in self.label_members.iter().enumerate() {
            let sym = Sym(sym as u32);
            let mut set = LabelSet::new();
            for &id in ids {
                let carries = node(id).is_some_and(|n| n.labels.binary_search(&sym).is_ok());
                ensure(carries && set.insert(id), || {
                    format!(
                        "label `{}` lists node {id}, which is absent, lacks the label \
                         or is listed twice",
                        self.labels.resolve(sym)
                    )
                })?;
            }
            label_members.push(set);
        }
        ensure(
            label_members.iter().map(LabelSet::len).sum::<usize>() == label_refs,
            || "label membership omits nodes that carry the label".to_string(),
        )?;

        self.indexes.validate(&self.label_members, node)?;

        Ok(Graph {
            nodes: self.nodes,
            rels: self.rels,
            labels: self.labels,
            rel_types: self.rel_types,
            label_members,
            indexes: self.indexes,
            live_nodes,
            live_rels,
            epoch: self.epoch,
        })
    }
}

/// `Err(msg())` unless `ok`: one load-time check.
fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// The current write epoch. Strictly increases across successful
    /// mutations (node/relationship/property/label/index changes) and
    /// never changes on reads, so `epoch() == earlier_epoch` proves any
    /// result computed at `earlier_epoch` is still valid.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Raises the epoch to at least `min` (no-op when already there).
    ///
    /// Used by [`crate::store::GraphStore`] when swapping in a graph
    /// whose epoch is not ahead of the snapshot it replaces — e.g. one
    /// reloaded from an old snapshot file — so epoch-keyed cache entries
    /// recorded against the previous snapshot can never validate against
    /// the new one.
    pub fn raise_epoch_to(&mut self, min: u64) {
        if self.epoch < min {
            self.epoch = min;
        }
    }

    /// Adds a node with the given labels and properties, returning its id.
    pub fn add_node<I, S>(&mut self, labels: I, props: Props) -> NodeId
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let id = NodeId(self.nodes.len() as u64);
        let mut syms: Vec<Sym> = labels
            .into_iter()
            .map(|l| self.intern_label(l.as_ref()))
            .collect();
        syms.sort_unstable();
        syms.dedup();
        for &sym in &syms {
            self.label_members[sym.0 as usize].insert(id);
        }
        self.indexes.on_node_added(id, &syms, &props);
        self.nodes.push(NodeRecord {
            id,
            labels: syms,
            props,
            out: Vec::new(),
            inc: Vec::new(),
        });
        self.live_nodes += 1;
        self.bump_epoch();
        id
    }

    /// Adds a directed relationship `src -[ty]-> dst`.
    pub fn add_rel(
        &mut self,
        src: NodeId,
        ty: &str,
        dst: NodeId,
        props: Props,
    ) -> Result<RelId, GraphError> {
        if self.node(src).is_none() {
            return Err(GraphError::NodeNotFound(src));
        }
        if self.node(dst).is_none() {
            return Err(GraphError::NodeNotFound(dst));
        }
        let ty = self.rel_types.intern(ty);
        let id = RelId(self.rels.len() as u64);
        self.rels.push(RelRecord {
            id,
            ty,
            src,
            dst,
            props,
        });
        self.node_mut_raw(src).out.push(id);
        self.node_mut_raw(dst).inc.push(id);
        self.live_rels += 1;
        self.bump_epoch();
        Ok(id)
    }

    /// Removes a relationship.
    pub fn remove_rel(&mut self, id: RelId) -> Result<RelRecord, GraphError> {
        let rec = self
            .rels
            .take(id.0 as usize)
            .ok_or(GraphError::RelNotFound(id))?;
        self.node_mut_raw(rec.src).out.retain(|&r| r != id);
        self.node_mut_raw(rec.dst).inc.retain(|&r| r != id);
        self.live_rels -= 1;
        self.bump_epoch();
        Ok(rec)
    }

    /// Detach-deletes a node: removes all its relationships, then the node.
    pub fn remove_node(&mut self, id: NodeId) -> Result<NodeRecord, GraphError> {
        let rels: Vec<RelId> = {
            let rec = self.node(id).ok_or(GraphError::NodeNotFound(id))?;
            rec.out.iter().chain(rec.inc.iter()).copied().collect()
        };
        for r in rels {
            // A self-loop appears in both lists; the second remove is a no-op.
            let _ = self.remove_rel(r);
        }
        let rec = self.nodes.take(id.0 as usize).expect("checked above");
        for &sym in &rec.labels {
            self.label_members[sym.0 as usize].remove(id);
        }
        self.indexes.on_node_removed(id, &rec.labels, &rec.props);
        self.live_nodes -= 1;
        self.bump_epoch();
        Ok(rec)
    }

    /// Sets (or with `Value::Null`, clears) a node property, keeping
    /// indexes synchronized.
    pub fn set_node_prop(
        &mut self,
        id: NodeId,
        key: &str,
        value: impl Into<Value>,
    ) -> Result<(), GraphError> {
        let value = value.into();
        let (labels, old) = {
            let rec = self.node(id).ok_or(GraphError::NodeNotFound(id))?;
            (rec.labels.clone(), rec.props.get(key).cloned())
        };
        self.indexes
            .on_prop_changed(id, &labels, key, old.as_ref(), &value);
        self.node_mut_raw(id).props.set(key, value);
        self.bump_epoch();
        Ok(())
    }

    /// Sets a relationship property.
    pub fn set_rel_prop(
        &mut self,
        id: RelId,
        key: &str,
        value: impl Into<Value>,
    ) -> Result<(), GraphError> {
        let rec = self
            .rels
            .get_mut(id.0 as usize)
            .ok_or(GraphError::RelNotFound(id))?;
        rec.props.set(key, value);
        self.bump_epoch();
        Ok(())
    }

    /// Adds a label to an existing node.
    pub fn add_label(&mut self, id: NodeId, label: &str) -> Result<(), GraphError> {
        if self.node(id).is_none() {
            return Err(GraphError::NodeNotFound(id));
        }
        let sym = self.intern_label(label);
        let rec = self.node_mut_raw(id);
        if let Err(pos) = rec.labels.binary_search(&sym) {
            rec.labels.insert(pos, sym);
            let props = rec.props.clone();
            self.label_members[sym.0 as usize].insert(id);
            self.indexes.on_node_added(id, &[sym], &props);
            self.bump_epoch();
        }
        Ok(())
    }

    fn intern_label(&mut self, label: &str) -> Sym {
        let sym = self.labels.intern(label);
        while self.label_members.len() <= sym.0 as usize {
            self.label_members.push(LabelSet::new());
        }
        sym
    }

    fn node_mut_raw(&mut self, id: NodeId) -> &mut NodeRecord {
        self.nodes
            .get_mut(id.0 as usize)
            .expect("caller verified node exists")
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Returns the node record, or `None` if deleted/nonexistent.
    pub fn node(&self, id: NodeId) -> Option<&NodeRecord> {
        self.nodes.get(id.0 as usize)
    }

    /// Returns the relationship record.
    pub fn rel(&self, id: RelId) -> Option<&RelRecord> {
        self.rels.get(id.0 as usize)
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live relationships.
    pub fn rel_count(&self) -> usize {
        self.live_rels
    }

    /// Resolves a label symbol to its name.
    pub fn label_name(&self, sym: Sym) -> &str {
        self.labels.resolve(sym)
    }

    /// Resolves a relationship-type symbol to its name.
    pub fn rel_type_name(&self, sym: Sym) -> &str {
        self.rel_types.resolve(sym)
    }

    /// Looks up a label symbol by name without interning.
    pub fn label_sym(&self, name: &str) -> Option<Sym> {
        self.labels.get(name)
    }

    /// Looks up a relationship-type symbol by name without interning.
    pub fn rel_type_sym(&self, name: &str) -> Option<Sym> {
        self.rel_types.get(name)
    }

    /// The label names of a node.
    pub fn node_labels(&self, id: NodeId) -> Vec<&str> {
        self.node(id)
            .map(|n| n.labels.iter().map(|&s| self.labels.resolve(s)).collect())
            .unwrap_or_default()
    }

    /// Does the node carry `label`?
    pub fn node_has_label(&self, id: NodeId, label: &str) -> bool {
        match (self.node(id), self.labels.get(label)) {
            (Some(rec), Some(sym)) => rec.labels.binary_search(&sym).is_ok(),
            _ => false,
        }
    }

    /// Does the node carry the label with pre-resolved symbol `sym`?
    ///
    /// Symbol-level variant of [`Graph::node_has_label`] for compiled
    /// execution paths that resolve label names once at lowering time.
    pub fn node_has_label_sym(&self, id: NodeId, sym: Sym) -> bool {
        match self.node(id) {
            Some(rec) => rec.labels.binary_search(&sym).is_ok(),
            None => false,
        }
    }

    /// All live node ids, ascending.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        crate::dbhits::add(1 + self.live_nodes as u64);
        self.nodes.iter().filter_map(|n| n.map(|r| r.id))
    }

    /// All live relationship ids, ascending.
    pub fn all_rels(&self) -> impl Iterator<Item = RelId> + '_ {
        self.rels.iter().filter_map(|r| r.map(|r| r.id))
    }

    /// Node ids carrying `label`, ascending. Empty if the label is unknown.
    pub fn nodes_with_label<'a>(&'a self, label: &str) -> Box<dyn Iterator<Item = NodeId> + 'a> {
        match self.labels.get(label) {
            Some(sym) => {
                let members = &self.label_members[sym.0 as usize];
                crate::dbhits::add(1 + members.len() as u64);
                Box::new(members.iter())
            }
            None => {
                crate::dbhits::add(1);
                Box::new(std::iter::empty())
            }
        }
    }

    /// Number of nodes carrying `label`.
    pub fn label_count(&self, label: &str) -> usize {
        self.labels
            .get(label)
            .map(|sym| self.label_members[sym.0 as usize].len())
            .unwrap_or(0)
    }

    /// All known label names.
    pub fn all_labels(&self) -> impl Iterator<Item = &str> {
        self.labels.iter().map(|(_, n)| n)
    }

    /// All known relationship-type names.
    pub fn all_rel_types(&self) -> impl Iterator<Item = &str> {
        self.rel_types.iter().map(|(_, n)| n)
    }

    /// Expands from `node` in `dir`, optionally restricted to a set of
    /// relationship types, yielding `(rel, neighbor)` pairs.
    ///
    /// `types` of `None` means "any type". Unknown type names simply match
    /// nothing.
    pub fn neighbors(
        &self,
        node: NodeId,
        dir: Direction,
        types: Option<&[&str]>,
    ) -> Vec<(RelId, NodeId)> {
        let type_syms: Option<Vec<Sym>> =
            types.map(|ts| ts.iter().filter_map(|t| self.rel_types.get(t)).collect());
        let mut out = Vec::new();
        self.neighbors_into(node, dir, type_syms.as_deref(), &mut out);
        out
    }

    /// Allocation-free [`Graph::neighbors`]: clears `out` and appends the
    /// `(rel, neighbor)` pairs, so callers can reuse one scratch buffer
    /// across many expansions. `types` is pre-resolved to symbols (see
    /// [`Graph::rel_type_sym`]); `None` means "any type", while an empty
    /// slice — the lowering of a type list whose names are all unknown —
    /// matches nothing.
    ///
    /// Charges the same db hits as [`Graph::neighbors`]: one for the
    /// adjacency access plus one per pair appended.
    pub fn neighbors_into(
        &self,
        node: NodeId,
        dir: Direction,
        types: Option<&[Sym]>,
        out: &mut Vec<(RelId, NodeId)>,
    ) {
        out.clear();
        let Some(rec) = self.node(node) else {
            return;
        };
        // `skip_loops` dedups self-loops, which sit in both adjacency
        // lists, without materializing intermediate filtered lists.
        let mut push = |rel_ids: &[RelId], want_src: bool, skip_loops: bool| {
            for &rid in rel_ids {
                let r = self.rel(rid).expect("adjacency lists only hold live rels");
                if skip_loops && r.src == r.dst {
                    continue;
                }
                if let Some(syms) = types {
                    if !syms.contains(&r.ty) {
                        continue;
                    }
                }
                let nbr = if want_src { r.src } else { r.dst };
                out.push((rid, nbr));
            }
        };
        match dir {
            Direction::Outgoing => push(&rec.out, false, false),
            Direction::Incoming => push(&rec.inc, true, false),
            Direction::Both => {
                push(&rec.out, false, false);
                push(&rec.inc, true, true);
            }
        }
        crate::dbhits::add(1 + out.len() as u64);
    }

    /// Degree of a node in the given direction (any relationship type).
    pub fn degree(&self, node: NodeId, dir: Direction) -> usize {
        match self.node(node) {
            None => 0,
            Some(rec) => match dir {
                Direction::Outgoing => rec.out.len(),
                Direction::Incoming => rec.inc.len(),
                Direction::Both => {
                    let loops = rec
                        .out
                        .iter()
                        .filter(|&&rid| self.rel(rid).map(|r| r.src == r.dst).unwrap_or(false))
                        .count();
                    rec.out.len() + rec.inc.len() - loops
                }
            },
        }
    }

    // ------------------------------------------------------------------
    // Indexes
    // ------------------------------------------------------------------

    /// Creates (and backfills) a hash index on `(label, key)`.
    /// Idempotent.
    pub fn create_index(&mut self, label: &str, key: &str) {
        let sym = self.intern_label(label);
        let members: Vec<NodeId> = self.label_members[sym.0 as usize].iter().collect();
        let entries: Vec<(NodeId, ValueKey)> = members
            .iter()
            .filter_map(|&id| {
                self.node(id)
                    .and_then(|n| n.props.get(key).map(|v| (id, ValueKey::of(v))))
            })
            .collect();
        self.indexes.create(sym, key, entries.into_iter());
        // Index creation doesn't change query results, but it can change
        // plans; bumping keeps cache semantics conservative and simple.
        self.bump_epoch();
    }

    /// Exact-match index lookup. Returns `None` when no index exists on
    /// `(label, key)` — the planner falls back to a label scan.
    pub fn index_lookup(&self, label: &str, key: &str, value: &Value) -> Option<Vec<NodeId>> {
        let sym = self.labels.get(label)?;
        let hits = self.indexes.lookup(sym, key, &ValueKey::of(value));
        if let Some(ids) = &hits {
            crate::dbhits::add(1 + ids.len() as u64);
        }
        hits
    }

    /// Range scan over the index: the ids under keys within the bounds,
    /// in key order. Each call merges the hash partitions' sorted ranges
    /// (see [`crate::index`]); no ordered copy is kept between calls.
    pub fn index_range(
        &self,
        label: &str,
        key: &str,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Option<Vec<NodeId>> {
        let sym = self.labels.get(label)?;
        let hits = self.indexes.range(
            sym,
            key,
            lo.map(|(v, inc)| (ValueKey::of(v), inc)),
            hi.map(|(v, inc)| (ValueKey::of(v), inc)),
        );
        if let Some(ids) = &hits {
            crate::dbhits::add(1 + ids.len() as u64);
        }
        hits
    }

    /// Does an index exist on `(label, key)`?
    pub fn has_index(&self, label: &str, key: &str) -> bool {
        self.labels
            .get(label)
            .map(|sym| self.indexes.exists(sym, key))
            .unwrap_or(false)
    }

    /// Lists `(label, key)` pairs with indexes.
    pub fn list_indexes(&self) -> Vec<(String, String)> {
        self.indexes
            .list()
            .into_iter()
            .map(|(sym, key)| (self.labels.resolve(sym).to_string(), key))
            .collect()
    }

    /// Every id in the `(label, key)` index in key order, descending when
    /// `descending`, ids ascending within a key. The walk is lazy: it
    /// charges one db hit up front and one per id yielded, so a caller
    /// that stops after `k` ids pays `1 + k`, the same as an exact seek
    /// returning `k` ids. `None` when no such index exists.
    pub fn index_walk(
        &self,
        label: &str,
        key: &str,
        descending: bool,
    ) -> Option<impl Iterator<Item = NodeId> + '_> {
        let sym = self.labels.get(label)?;
        let ids = self.indexes.walk(sym, key, descending)?;
        crate::dbhits::add(1);
        Some(ids.inspect(|_| crate::dbhits::add(1)))
    }

    /// The `(label, key)` index's ids counted by key class (O(1); see
    /// [`IndexKeyStats`]). `None` when no such index exists.
    pub fn index_key_stats(&self, label: &str, key: &str) -> Option<IndexKeyStats> {
        let sym = self.labels.get(label)?;
        self.indexes.key_stats(sym, key)
    }

    // ------------------------------------------------------------------
    // Copy-on-write accounting
    // ------------------------------------------------------------------

    /// Memory accounting for this snapshot's paged storage: approximate
    /// retained heap bytes plus shared-vs-owned counts for record pages,
    /// label shards, and index partitions. "Shared" structures are held
    /// jointly with other live `Graph` clones (older snapshots, in-flight
    /// ingest copies); "owned" ones belong to this graph alone.
    pub fn memory_stats(&self) -> MemoryStats {
        let node_bytes = self.nodes.heap_bytes(|rec| {
            rec.labels.capacity() * std::mem::size_of::<Sym>()
                + rec.out.capacity() * std::mem::size_of::<RelId>()
                + rec.inc.capacity() * std::mem::size_of::<RelId>()
                + props_heap_bytes(&rec.props)
        });
        let rel_bytes = self.rels.heap_bytes(|rec| props_heap_bytes(&rec.props));
        let label_bytes: usize = self.label_members.iter().map(LabelSet::heap_bytes).sum();
        MemoryStats {
            retained_bytes: node_bytes + rel_bytes + label_bytes + self.indexes.heap_bytes(),
            node_pages: self.nodes.page_count(),
            node_pages_shared: self.nodes.shared_page_count(),
            rel_pages: self.rels.page_count(),
            rel_pages_shared: self.rels.shared_page_count(),
            label_shards: self.label_members.iter().map(LabelSet::shard_count).sum(),
            label_shards_shared: self
                .label_members
                .iter()
                .map(LabelSet::shared_shard_count)
                .sum(),
            index_partitions: self.indexes.partition_count(),
            index_partitions_shared: self.indexes.shared_partition_count(),
        }
    }

    /// A clone with every page, shard, and partition privately owned —
    /// the allocation profile of the pre-paged store's `Graph::clone`.
    /// Exists for benches (`bin/cow_ingest`) to measure what path-copying
    /// saves; production code paths never call it.
    pub fn deep_clone(&self) -> Graph {
        let mut g = self.clone();
        g.nodes.make_owned();
        g.rels.make_owned();
        for set in &mut g.label_members {
            set.make_owned();
        }
        g.indexes.make_owned();
        g
    }
}

/// Approximate heap bytes owned by a property map.
fn props_heap_bytes(props: &Props) -> usize {
    props
        .iter()
        .map(|(k, v)| k.len() + value_heap_bytes(v) + 48)
        .sum()
}

fn value_heap_bytes(v: &Value) -> usize {
    match v {
        Value::Str(s) => s.len(),
        Value::List(items) => {
            items.capacity() * std::mem::size_of::<Value>()
                + items.iter().map(value_heap_bytes).sum::<usize>()
        }
        Value::Map(m) => m
            .iter()
            .map(|(k, v)| k.len() + value_heap_bytes(v) + 48)
            .sum(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props;

    fn tiny() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node(["AS"], props!("asn" => 2497i64, "name" => "IIJ"));
        let b = g.add_node(["AS"], props!("asn" => 15169i64, "name" => "Google"));
        let c = g.add_node(["Country"], props!("country_code" => "JP"));
        g.add_rel(a, "COUNTRY", c, Props::new()).unwrap();
        g.add_rel(a, "PEERS_WITH", b, Props::new()).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn add_and_lookup() {
        let (g, a, _, c) = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.rel_count(), 2);
        assert_eq!(g.node(a).unwrap().props.get("asn"), Some(&Value::Int(2497)));
        assert!(g.node_has_label(c, "Country"));
        assert!(!g.node_has_label(c, "AS"));
    }

    #[test]
    fn label_scan() {
        let (g, a, b, _) = tiny();
        let ases: Vec<NodeId> = g.nodes_with_label("AS").collect();
        assert_eq!(ases, vec![a, b]);
        assert_eq!(g.label_count("Country"), 1);
        assert_eq!(g.nodes_with_label("Nope").count(), 0);
    }

    #[test]
    fn neighbors_directional() {
        let (g, a, b, c) = tiny();
        let out: Vec<NodeId> = g
            .neighbors(a, Direction::Outgoing, None)
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        assert_eq!(out, vec![c, b]);
        let inc: Vec<NodeId> = g
            .neighbors(c, Direction::Incoming, None)
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        assert_eq!(inc, vec![a]);
        let typed = g.neighbors(a, Direction::Outgoing, Some(&["PEERS_WITH"]));
        assert_eq!(typed.len(), 1);
        assert_eq!(typed[0].1, b);
    }

    #[test]
    fn both_direction_no_selfloop_double_count() {
        let mut g = Graph::new();
        let a = g.add_node(["AS"], Props::new());
        g.add_rel(a, "PEERS_WITH", a, Props::new()).unwrap();
        assert_eq!(g.neighbors(a, Direction::Both, None).len(), 1);
        assert_eq!(g.degree(a, Direction::Both), 1);
    }

    #[test]
    fn selfloop_mixed_with_plain_rels_both_direction() {
        let mut g = Graph::new();
        let a = g.add_node(["AS"], Props::new());
        let b = g.add_node(["AS"], Props::new());
        let r_out = g.add_rel(a, "PEERS_WITH", b, Props::new()).unwrap();
        let r_loop = g.add_rel(a, "PEERS_WITH", a, Props::new()).unwrap();
        let r_in = g.add_rel(b, "DEPENDS_ON", a, Props::new()).unwrap();
        let both = g.neighbors(a, Direction::Both, None);
        // Self-loop reported exactly once; out-list first, then incoming.
        assert_eq!(both, vec![(r_out, b), (r_loop, a), (r_in, b)]);
        let typed = g.neighbors(a, Direction::Both, Some(&["PEERS_WITH"]));
        assert_eq!(typed, vec![(r_out, b), (r_loop, a)]);
    }

    #[test]
    fn neighbors_into_matches_neighbors_and_dbhits() {
        let (mut g, a, b, c) = tiny();
        g.add_rel(b, "PEERS_WITH", a, Props::new()).unwrap();
        g.add_rel(c, "COUNTRY", c, Props::new()).unwrap();
        let peers_sym = g.rel_type_sym("PEERS_WITH").unwrap();
        let mut buf = Vec::new();
        for node in [a, b, c, NodeId(99)] {
            for dir in [Direction::Outgoing, Direction::Incoming, Direction::Both] {
                for (names, syms) in [
                    (None, None),
                    (Some(vec!["PEERS_WITH"]), Some(vec![peers_sym])),
                    (Some(vec!["NOPE"]), Some(Vec::new())),
                ] {
                    let h0 = crate::dbhits::current();
                    let via_vec = g.neighbors(node, dir, names.as_deref());
                    let h_vec = crate::dbhits::current() - h0;
                    buf.push((RelId(0), NodeId(0))); // must be cleared
                    let h1 = crate::dbhits::current();
                    g.neighbors_into(node, dir, syms.as_deref(), &mut buf);
                    let h_into = crate::dbhits::current() - h1;
                    assert_eq!(via_vec, buf);
                    assert_eq!(h_vec, h_into);
                }
            }
        }
    }

    #[test]
    fn node_has_label_sym_matches_name_lookup() {
        let (g, a, _, c) = tiny();
        let as_sym = g.label_sym("AS").unwrap();
        let country_sym = g.label_sym("Country").unwrap();
        assert!(g.node_has_label_sym(a, as_sym));
        assert!(!g.node_has_label_sym(a, country_sym));
        assert!(g.node_has_label_sym(c, country_sym));
        assert!(!g.node_has_label_sym(NodeId(99), as_sym));
    }

    #[test]
    fn detach_delete() {
        let (mut g, a, b, _) = tiny();
        g.remove_node(a).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.rel_count(), 0);
        assert!(g.node(a).is_none());
        assert_eq!(g.neighbors(b, Direction::Both, None).len(), 0);
        assert_eq!(g.nodes_with_label("AS").count(), 1);
    }

    #[test]
    fn rel_to_missing_node_fails() {
        let mut g = Graph::new();
        let a = g.add_node(["AS"], Props::new());
        let err = g.add_rel(a, "X", NodeId(99), Props::new()).unwrap_err();
        assert_eq!(err, GraphError::NodeNotFound(NodeId(99)));
    }

    #[test]
    fn index_lookup_and_maintenance() {
        let (mut g, a, _, _) = tiny();
        assert!(g.index_lookup("AS", "asn", &Value::Int(2497)).is_none());
        g.create_index("AS", "asn");
        assert_eq!(
            g.index_lookup("AS", "asn", &Value::Int(2497)),
            Some(vec![a])
        );
        // New node is picked up.
        let d = g.add_node(["AS"], props!("asn" => 7018i64));
        assert_eq!(
            g.index_lookup("AS", "asn", &Value::Int(7018)),
            Some(vec![d])
        );
        // Property update moves the entry.
        g.set_node_prop(d, "asn", 7019i64).unwrap();
        assert_eq!(g.index_lookup("AS", "asn", &Value::Int(7018)), Some(vec![]));
        assert_eq!(
            g.index_lookup("AS", "asn", &Value::Int(7019)),
            Some(vec![d])
        );
        // Deletion removes the entry.
        g.remove_node(d).unwrap();
        assert_eq!(g.index_lookup("AS", "asn", &Value::Int(7019)), Some(vec![]));
    }

    #[test]
    fn index_range_scan() {
        let mut g = Graph::new();
        for asn in [10i64, 20, 30, 40] {
            g.add_node(["AS"], props!("asn" => asn));
        }
        g.create_index("AS", "asn");
        let ids = g
            .index_range(
                "AS",
                "asn",
                Some((&Value::Int(15), true)),
                Some((&Value::Int(35), true)),
            )
            .unwrap();
        let asns: Vec<i64> = ids
            .iter()
            .map(|&id| {
                g.node(id)
                    .unwrap()
                    .props
                    .get("asn")
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .collect();
        assert_eq!(asns, vec![20, 30]);
    }

    #[test]
    fn epoch_bumps_on_mutations_only() {
        let mut g = Graph::new();
        let e0 = g.epoch();
        let a = g.add_node(["AS"], props!("asn" => 1i64));
        assert!(g.epoch() > e0);
        let e1 = g.epoch();
        let b = g.add_node(["AS"], Props::new());
        let r = g.add_rel(a, "PEERS_WITH", b, Props::new()).unwrap();
        g.set_node_prop(a, "asn", 2i64).unwrap();
        g.set_rel_prop(r, "since", 2020i64).unwrap();
        g.add_label(a, "Tier1").unwrap();
        assert!(g.epoch() > e1);

        // Idempotent label re-add and failed mutations leave it alone.
        let e2 = g.epoch();
        g.add_label(a, "Tier1").unwrap();
        assert!(g.add_rel(a, "X", NodeId(99), Props::new()).is_err());
        assert!(g.set_node_prop(NodeId(99), "x", 1i64).is_err());
        assert_eq!(g.epoch(), e2);

        // Reads leave it alone.
        let _ = g.node(a);
        let _ = g.neighbors(a, Direction::Both, None);
        let _ = g.node_count();
        assert_eq!(g.epoch(), e2);

        // Removals bump.
        g.remove_rel(r).unwrap();
        assert!(g.epoch() > e2);
        let e3 = g.epoch();
        g.remove_node(b).unwrap();
        assert!(g.epoch() > e3);
    }

    #[test]
    fn add_label_later() {
        let mut g = Graph::new();
        let a = g.add_node(["AS"], Props::new());
        g.add_label(a, "Tier1").unwrap();
        assert!(g.node_has_label(a, "Tier1"));
        assert_eq!(g.nodes_with_label("Tier1").count(), 1);
        // Idempotent.
        g.add_label(a, "Tier1").unwrap();
        assert_eq!(g.node(a).unwrap().labels.len(), 2);
    }

    #[test]
    fn clone_is_shallow_and_isolated() {
        let mut g = Graph::new();
        for i in 0..600i64 {
            g.add_node(["AS"], props!("asn" => i));
        }
        g.create_index("AS", "asn");
        let snap = g.clone();
        let m = g.memory_stats();
        assert_eq!(m.node_pages_shared, m.node_pages, "clone was not shallow");

        // Mutations on the original are invisible to the clone.
        let before = snap.node_count();
        g.add_node(["AS"], props!("asn" => 9999i64));
        g.set_node_prop(NodeId(0), "asn", -1i64).unwrap();
        g.remove_node(NodeId(1)).unwrap();
        assert_eq!(snap.node_count(), before);
        assert_eq!(
            snap.node(NodeId(0)).unwrap().props.get("asn"),
            Some(&Value::Int(0))
        );
        assert!(snap.node(NodeId(1)).is_some());
        assert_eq!(
            snap.index_lookup("AS", "asn", &Value::Int(1)),
            Some(vec![NodeId(1)])
        );
        // Only the touched pages were un-shared.
        let m2 = g.memory_stats();
        assert!(m2.node_pages_shared >= m2.node_pages - 2);
    }

    #[test]
    fn deep_clone_owns_everything() {
        let mut g = Graph::new();
        for i in 0..300i64 {
            g.add_node(["AS"], props!("asn" => i));
        }
        g.create_index("AS", "asn");
        let deep = g.deep_clone();
        let m = deep.memory_stats();
        assert_eq!(m.node_pages_shared, 0);
        assert_eq!(m.index_partitions_shared, 0);
        assert_eq!(m.label_shards_shared, 0);
        // Same contents, fully private storage.
        assert_eq!(deep.node_count(), g.node_count());
    }
}
