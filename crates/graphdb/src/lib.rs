//! # iyp-graphdb
//!
//! An in-memory property-graph engine — the Neo4j substitute for the
//! ChatIYP reproduction.
//!
//! The data model follows openCypher: nodes carry labels and properties,
//! relationships are directed typed edges with properties. The store keeps
//! per-node adjacency, a per-label membership set, and optional hash/range
//! property indexes that the Cypher planner (in the `iyp-cypher` crate) uses
//! for seeks.
//!
//! ```
//! use iyp_graphdb::{Graph, Props, Value, Direction, props};
//!
//! let mut g = Graph::new();
//! let iij = g.add_node(["AS"], props!("asn" => 2497i64, "name" => "IIJ"));
//! let jp = g.add_node(["Country"], props!("country_code" => "JP"));
//! g.add_rel(iij, "COUNTRY", jp, Props::new()).unwrap();
//!
//! let neighbors = g.neighbors(iij, Direction::Outgoing, Some(&["COUNTRY"]));
//! assert_eq!(neighbors.len(), 1);
//! assert_eq!(g.node(jp).unwrap().props.get("country_code"), Some(&Value::from("JP")));
//! ```

#![deny(missing_docs)]

pub mod algo;
pub mod dbhits;
pub mod delta;
pub mod graph;
pub mod index;
pub mod intern;
pub mod page;
pub mod props;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod value;
pub mod wal;

pub use delta::{AppliedDelta, DeltaBatch, DeltaError, DeltaOp, NodeRef};
pub use graph::{Direction, Graph, GraphError, NodeId, NodeRecord, RelId, RelRecord};
pub use index::IndexKeyStats;
pub use intern::{Interner, Sym};
pub use page::{LabelSet, PagedVec, PAGE_SIZE};
pub use props::Props;
pub use stats::{GraphStats, MemoryStats};
pub use store::{GraphSnapshot, GraphStore, SwapReport};
pub use value::{Value, ValueError, ValueKey};
pub use wal::{FsyncPolicy, Wal, WalConfig, WalError, WalRecord, WalStats};

/// A thread-shareable graph handle. The Cypher executor reads through a
/// shared lock; dataset loading happens through a write lock up front.
pub type SharedGraph = std::sync::Arc<parking_lot::RwLock<Graph>>;

/// Wraps a graph for shared use.
pub fn shared(graph: Graph) -> SharedGraph {
    std::sync::Arc::new(parking_lot::RwLock::new(graph))
}
