//! # iyp-embed
//!
//! Deterministic text embeddings and cosine vector search — the substitute
//! for the neural embedding model behind ChatIYP's VectorContextRetriever.
//!
//! [`embedder::Embedder`] hashes word unigrams/bigrams and character
//! trigrams into a fixed-dimension signed vector (the feature-hashing
//! trick) and L2-normalizes it. [`index`] provides exact cosine search
//! ([`FlatIndex`]); [`docs::DocStore`] pairs texts with their vectors.
//!
//! ```
//! use iyp_embed::DocStore;
//!
//! let mut store = DocStore::new();
//! store.add("AS2497 IIJ", "IIJ is an autonomous system in Japan", 2497);
//! store.add("AS15169 Google", "Google operates cloud networks", 15169);
//! let hits = store.search("Japanese autonomous systems", 1);
//! assert_eq!(hits[0].doc.tag, 2497);
//! ```

#![deny(missing_docs)]

pub mod docs;
pub mod embedder;
pub mod index;
pub mod tokenize;

pub use docs::{Doc, DocHit, DocStore};
pub use embedder::{Embedder, Vector, DEFAULT_DIM};
pub use index::{FlatIndex, Hit};
