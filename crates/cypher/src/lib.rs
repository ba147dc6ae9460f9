//! # iyp-cypher
//!
//! A Cypher query engine for [`iyp_graphdb`] — the openCypher substitute in
//! the ChatIYP reproduction.
//!
//! Pipeline: [`lexer`] → [`parser`] (AST in [`ast`]) → [`compile`]
//! (slot-resolved operators) → [`exec`] (the one executor, which plans
//! anchors and chain order with [`plan`] as each `MATCH` runs). Supported
//! subset: `MATCH` / `OPTIONAL MATCH` with multi-hop and variable-length
//! patterns, `WHERE`, `WITH` chaining, aggregation (`count`, `sum`, `avg`,
//! `min`, `max`, `collect`, `stdev`, `percentileCont`), `ORDER BY`,
//! `SKIP`/`LIMIT`, `DISTINCT`, `UNWIND`, list/map expressions, `CASE`,
//! list comprehensions, and the write clauses used by the dataset loader
//! (`CREATE`, `MERGE`, `SET`, `DELETE`).
//!
//! ```
//! use iyp_graphdb::{Graph, Props, props};
//! use iyp_cypher::query;
//!
//! let mut g = Graph::new();
//! let a = g.add_node(["AS"], props!("asn" => 2497i64, "name" => "IIJ"));
//! let c = g.add_node(["Country"], props!("country_code" => "JP"));
//! g.add_rel(a, "COUNTRY", c, Props::new()).unwrap();
//!
//! let result = query(&g, "MATCH (a:AS)-[:COUNTRY]->(c:Country) \
//!                         RETURN a.name, c.country_code").unwrap();
//! assert_eq!(result.rows.len(), 1);
//! assert_eq!(result.rows[0][0].to_string(), "IIJ");
//! ```

#![deny(missing_docs)]

pub mod ast;
pub mod cache;
pub mod compile;
pub mod corpus;
pub mod error;
pub mod eval;
pub mod exec;
pub mod explain;
pub mod functions;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod pretty;
pub mod profile;
pub mod result;
pub mod token;

pub use cache::{normalize_query, PlanCache, PlanCacheStats, Prepared};
pub use compile::{
    compile_expr, compile_query, compile_time_ns, CompiledExpr, CompiledQuery, Evaluator,
};
pub use error::{CypherError, Stage};
pub use eval::{Entry, Env, Params, Row};
pub use exec::{
    execute, execute_prepared_with_limits, execute_read, execute_read_with_limits, query,
    query_with, query_with_deadline, update, ExecLimits,
};
pub use explain::explain;
pub use parser::{parse, parse_expression, parse_statement, QueryMode};
pub use pretty::{canonicalize, query_to_string};
pub use profile::{profile_with_limits, OpProfile, QueryProfile};
pub use result::QueryResult;
