//! Pipeline configuration: stage toggles (used by the ablation bench),
//! retrieval knobs, and query-cache sizing.

use crate::cache::CacheConfig;
use crate::resilience::ResilienceConfig;
use iyp_llm::LmConfig;

/// Configuration of the ChatIYP pipeline.
#[derive(Debug, Clone)]
pub struct ChatIypConfig {
    /// Simulated-LM knobs (seed, skill, paraphrase variety).
    pub lm: LmConfig,
    /// Stage 2a: TextToCypherRetriever.
    pub enable_text2cypher: bool,
    /// Stage 2b: VectorContextRetriever fallback on failed/empty
    /// structured retrieval.
    pub enable_vector_fallback: bool,
    /// Stage 2c: LLMReranker over vector candidates.
    pub enable_reranker: bool,
    /// How many vector candidates to fetch before reranking.
    pub vector_top_k: usize,
    /// How many contexts survive reranking into generation.
    pub rerank_top_k: usize,
    /// Self-correction: when the generated query fails or returns
    /// nothing, re-prompt the translator up to this many extra times and
    /// accept the first attempt that yields rows. 0 disables retries
    /// (the paper's configuration); the `full+retry` ablation arm
    /// explores the paper's "further future research" direction.
    pub max_retries: u32,
    /// Two-tier query cache sizes (result and plan capacity). Shared
    /// between the `ask` path and the server's `/cypher` endpoint.
    pub cache: CacheConfig,
    /// Worker threads for morsel-parallel `MATCH` expansion in read
    /// queries. Defaults to the machine's available cores; `1` executes
    /// sequentially. Results are byte-identical at any setting.
    pub query_parallelism: usize,
    /// Record a structured span tree for every `ask` into the trace
    /// ring (and return it from [`crate::ChatIyp::ask_traced`]). Stage
    /// histograms are recorded regardless of this flag.
    pub trace_requests: bool,
    /// How many recent request traces the ring buffer retains.
    pub trace_ring_capacity: usize,
    /// Resilience layer: fault injection, per-request budget, transient
    /// fault retry/backoff, graceful degradation. See
    /// [`crate::resilience`] and `docs/RESILIENCE.md`.
    pub resilience: ResilienceConfig,
}

impl Default for ChatIypConfig {
    fn default() -> Self {
        ChatIypConfig {
            lm: LmConfig::default(),
            enable_text2cypher: true,
            enable_vector_fallback: true,
            enable_reranker: true,
            vector_top_k: 8,
            rerank_top_k: 3,
            max_retries: 0,
            cache: CacheConfig::default(),
            query_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            trace_requests: true,
            trace_ring_capacity: 64,
            resilience: ResilienceConfig::default(),
        }
    }
}

impl ChatIypConfig {
    /// The full cascade plus one self-correction retry (extension arm).
    pub fn with_retry() -> Self {
        ChatIypConfig {
            max_retries: 1,
            ..Default::default()
        }
    }

    /// Text-to-Cypher only (first ablation arm).
    pub fn cypher_only() -> Self {
        ChatIypConfig {
            enable_vector_fallback: false,
            enable_reranker: false,
            ..Default::default()
        }
    }

    /// Cypher + vector fallback without the reranker (second arm).
    pub fn without_reranker() -> Self {
        ChatIypConfig {
            enable_reranker: false,
            ..Default::default()
        }
    }

    /// Vector retrieval only (no structured stage).
    pub fn vector_only() -> Self {
        ChatIypConfig {
            enable_text2cypher: false,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_presets() {
        let full = ChatIypConfig::default();
        assert!(full.enable_text2cypher && full.enable_vector_fallback && full.enable_reranker);
        let c = ChatIypConfig::cypher_only();
        assert!(c.enable_text2cypher && !c.enable_vector_fallback && !c.enable_reranker);
        let v = ChatIypConfig::vector_only();
        assert!(!v.enable_text2cypher && v.enable_vector_fallback);
        let nr = ChatIypConfig::without_reranker();
        assert!(nr.enable_vector_fallback && !nr.enable_reranker);
    }
}
