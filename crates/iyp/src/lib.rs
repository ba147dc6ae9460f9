//! # iyp-data
//!
//! The Internet Yellow Pages dataset substrate: the IYP schema
//! ([`schema`]), a static country table ([`countries`]), an AS-level
//! topology synthesizer ([`topology`]), the full dataset generator
//! ([`generator`]) and node-description rendering for the vector retriever
//! ([`describe`]).
//!
//! The public IYP dump is not available offline, so the generator produces
//! a schema-faithful synthetic Internet: a tiered AS graph with pinned
//! well-known networks (AS2497/IIJ, AS15169/Google, …), prefixes, IXPs,
//! organizations, facilities, domain names, APNIC-style population shares,
//! CAIDA-style AS ranks and a Tranco-style domain list. Everything is a
//! pure function of [`generator::IypConfig`] (seeded), so experiments are
//! reproducible bit-for-bit.
//!
//! ```
//! use iyp_data::generator::{generate, IypConfig};
//! use iyp_cypher::query;
//!
//! let dataset = generate(&IypConfig::tiny());
//! let r = query(&dataset.graph,
//!     "MATCH (a:AS {asn: 2497})-[:COUNTRY]->(c:Country) RETURN c.name").unwrap();
//! assert_eq!(r.rows[0][0].to_string(), "Japan");
//! ```

#![deny(missing_docs)]

pub mod countries;
pub mod delta;
pub mod describe;
pub mod export;
pub mod generator;
pub mod schema;
pub mod topology;

pub use delta::{grow_to, growth_batch, max_asn, GROWTH_BATCH_MAX_AS};
pub use describe::{describe_all, describe_delta, describe_node, DocDelta, NodeDoc};
pub use generator::{generate, DatasetManifest, IypConfig, IypDataset};
