//! Cosine-similarity vector index.
//!
//! One exact index, [`FlatIndex`]: brute-force cosine over every live
//! vector, with fully deterministic ranking.
//!
//! The index is **tombstone-aware**: a document can be removed (its
//! slot is skipped by searches) or overwritten in place, which is what
//! lets a live system refresh single documents after an ingest instead of
//! rebuilding the whole index.

use crate::embedder::Vector;

/// One search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Index of the document in insertion order.
    pub doc: usize,
    /// Cosine similarity to the query.
    pub score: f32,
}

/// Exact flat index: brute-force cosine over all live vectors.
#[derive(Debug, Clone, Default)]
pub struct FlatIndex {
    vectors: Vec<Vector>,
    /// Tombstones: `live[doc]` is false once `doc` was removed. Dead
    /// slots keep their (stale) vector but are invisible to `search`
    /// until [`FlatIndex::set`] revives them.
    live: Vec<bool>,
}

impl FlatIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vector, returning its document id.
    pub fn add(&mut self, v: Vector) -> usize {
        self.vectors.push(v);
        self.live.push(true);
        self.vectors.len() - 1
    }

    /// Overwrites slot `doc` with `v`, reviving it if it was tombstoned.
    /// Panics if `doc` was never allocated by [`FlatIndex::add`].
    pub fn set(&mut self, doc: usize, v: Vector) {
        self.live[doc] = true;
        self.vectors[doc] = v;
    }

    /// Tombstones slot `doc`: searches skip it from now on. Removing an
    /// already-dead slot is a no-op. Panics if `doc` was never allocated.
    pub fn remove(&mut self, doc: usize) {
        self.live[doc] = false;
    }

    /// Top-`k` most similar live documents, sorted by descending score
    /// (ties by ascending doc id, so results are fully deterministic).
    pub fn search(&self, query: &Vector, k: usize) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self
            .vectors
            .iter()
            .enumerate()
            .filter(|(doc, _)| self.live[*doc])
            .map(|(doc, v)| Hit {
                doc,
                score: query.cosine(v),
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedder::Embedder;

    fn corpus() -> (Embedder, Vec<&'static str>) {
        (
            Embedder::default(),
            vec![
                "AS2497 IIJ is an autonomous system registered in Japan",
                "AS15169 Google operates content and cloud networks",
                "Japan has a population of 124 million",
                "JPIX is an Internet exchange point in Tokyo",
                "shop42.com is ranked 17 in the Tranco list",
            ],
        )
    }

    #[test]
    fn flat_search_finds_relevant_doc() {
        let (e, docs) = corpus();
        let mut idx = FlatIndex::new();
        for d in &docs {
            idx.add(e.embed(d));
        }
        let hits = idx.search(&e.embed("Which exchange point is in Tokyo?"), 2);
        assert_eq!(hits[0].doc, 3, "hits: {hits:?}");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn flat_search_is_deterministic() {
        let (e, docs) = corpus();
        let mut idx = FlatIndex::new();
        for d in &docs {
            idx.add(e.embed(d));
        }
        let q = e.embed("google cloud");
        assert_eq!(idx.search(&q, 3), idx.search(&q, 3));
    }

    #[test]
    fn flat_remove_hides_and_set_revives() {
        let (e, docs) = corpus();
        let mut idx = FlatIndex::new();
        for d in &docs {
            idx.add(e.embed(d));
        }
        let q = e.embed("Which exchange point is in Tokyo?");
        assert_eq!(idx.search(&q, 1)[0].doc, 3);

        idx.remove(3);
        let hits = idx.search(&q, docs.len());
        assert_eq!(hits.len(), docs.len() - 1);
        assert!(hits.iter().all(|h| h.doc != 3));
        // Double-remove is a no-op.
        idx.remove(3);
        assert_eq!(idx.search(&q, docs.len()), hits);

        // Reviving the slot with a fresh vector brings it back.
        idx.set(3, e.embed(docs[3]));
        assert_eq!(idx.search(&q, docs.len()).len(), docs.len());
        assert_eq!(idx.search(&q, 1)[0].doc, 3);
    }

    #[test]
    fn flat_set_overwrites_in_place() {
        let (e, _) = corpus();
        let mut idx = FlatIndex::new();
        idx.add(e.embed("alpha networks"));
        idx.add(e.embed("beta exchange"));
        let q = e.embed("gamma routing");
        idx.set(1, e.embed("gamma routing platform"));
        assert_eq!(idx.search(&q, 1)[0].doc, 1);
        assert_eq!(idx.search(&q, 9).len(), 2);
    }

    #[test]
    fn zero_query_vector_is_deterministic_and_ties_by_doc_id() {
        let (e, docs) = corpus();
        let mut idx = FlatIndex::new();
        for d in &docs {
            idx.add(e.embed(d));
        }
        let zero = Vector(vec![0.0; crate::embedder::DEFAULT_DIM]);
        // Every doc scores 0.0, so the order is ascending doc id.
        let hits = idx.search(&zero, docs.len());
        assert_eq!(hits.len(), docs.len());
        assert!(hits.iter().all(|h| h.score == 0.0));
        let ids: Vec<usize> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(ids, (0..docs.len()).collect::<Vec<_>>());
        // And the result is reproducible.
        assert_eq!(hits, idx.search(&zero, docs.len()));
        // Truncation keeps the lowest ids; tombstones drop out of the tie.
        idx.remove(1);
        let ids: Vec<usize> = idx.search(&zero, 3).iter().map(|h| h.doc).collect();
        assert_eq!(ids, vec![0, 2, 3]);
    }

    #[test]
    fn top_k_truncates() {
        let (e, docs) = corpus();
        let mut idx = FlatIndex::new();
        for d in &docs {
            idx.add(e.embed(d));
        }
        assert_eq!(idx.search(&e.embed("network"), 2).len(), 2);
        assert_eq!(idx.search(&e.embed("network"), 99).len(), docs.len());
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = FlatIndex::new();
        assert!(idx.search(&Embedder::default().embed("x"), 5).is_empty());
    }
}
