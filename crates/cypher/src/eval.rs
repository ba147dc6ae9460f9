//! Runtime rows and bindings, plus the value helpers expression
//! evaluation ([`crate::compile::Evaluator`]) shares with constant folding.

use iyp_graphdb::{Graph, NodeId, RelId, Value};
use std::collections::BTreeMap;

/// Query parameters (`$name` → value).
pub type Params = BTreeMap<String, Value>;

/// A bound runtime entity: either a plain value, or a graph entity kept by
/// id so property access and identity semantics stay exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// A computed value.
    Val(Value),
    /// A bound node.
    Node(NodeId),
    /// A bound relationship.
    Rel(RelId),
    /// A bound path: nodes and the relationships between them.
    Path(Vec<NodeId>, Vec<RelId>),
}

impl Entry {
    /// Converts the entry to a `Value` for projection, comparison and
    /// serialization. Nodes become maps of their properties plus `_id` and
    /// `_labels`; relationships become maps plus `_id` and `_type`.
    pub fn to_value(&self, graph: &Graph) -> Value {
        match self {
            Entry::Val(v) => v.clone(),
            Entry::Node(id) => match graph.node(*id) {
                None => Value::Null,
                Some(rec) => {
                    let mut m = match rec.props.to_value() {
                        Value::Map(m) => m,
                        _ => unreachable!("props always map to Value::Map"),
                    };
                    m.insert("_id".to_string(), Value::Int(id.0 as i64));
                    m.insert(
                        "_labels".to_string(),
                        Value::List(
                            graph
                                .node_labels(*id)
                                .into_iter()
                                .map(Value::from)
                                .collect(),
                        ),
                    );
                    Value::Map(m)
                }
            },
            Entry::Rel(id) => match graph.rel(*id) {
                None => Value::Null,
                Some(rec) => {
                    let mut m = match rec.props.to_value() {
                        Value::Map(m) => m,
                        _ => unreachable!(),
                    };
                    m.insert("_id".to_string(), Value::Int(id.0 as i64));
                    m.insert(
                        "_type".to_string(),
                        Value::from(graph.rel_type_name(rec.ty)),
                    );
                    Value::Map(m)
                }
            },
            Entry::Path(nodes, rels) => {
                let mut m = BTreeMap::new();
                m.insert(
                    "_nodes".to_string(),
                    Value::List(
                        nodes
                            .iter()
                            .map(|n| Entry::Node(*n).to_value(graph))
                            .collect(),
                    ),
                );
                m.insert(
                    "_rels".to_string(),
                    Value::List(
                        rels.iter()
                            .map(|r| Entry::Rel(*r).to_value(graph))
                            .collect(),
                    ),
                );
                Value::Map(m)
            }
        }
    }

    /// Is this entry a null value?
    pub fn is_null(&self) -> bool {
        matches!(self, Entry::Val(Value::Null))
    }

    /// Property lookup with entity-aware semantics.
    pub fn get_prop(&self, graph: &Graph, key: &str) -> Value {
        match self {
            Entry::Node(id) => graph
                .node(*id)
                .map(|n| n.props.get_or_null(key))
                .unwrap_or(Value::Null),
            Entry::Rel(id) => graph
                .rel(*id)
                .map(|r| r.props.get_or_null(key))
                .unwrap_or(Value::Null),
            Entry::Val(Value::Map(m)) => m.get(key).cloned().unwrap_or(Value::Null),
            _ => Value::Null,
        }
    }
}

/// Column names for a row set. Position `i` in a row binds `names[i]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Env {
    /// Variable names in binding order.
    pub names: Vec<String>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Index of a variable.
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Adds a variable, returning its slot. Panics if already present.
    pub fn push(&mut self, name: impl Into<String>) -> usize {
        let name = name.into();
        debug_assert!(
            self.slot(&name).is_none(),
            "variable '{name}' already bound"
        );
        self.names.push(name);
        self.names.len() - 1
    }

    /// Adds a variable if absent, returning its slot either way.
    pub fn push_or_get(&mut self, name: impl Into<String>) -> usize {
        let name = name.into();
        match self.slot(&name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        }
    }
}

/// A runtime row: entries parallel to an [`Env`]'s names.
pub type Row = Vec<Entry>;

pub(crate) fn tri(b: Option<bool>) -> Value {
    match b {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

pub(crate) fn str_pred(lhs: &Value, rhs: &Value, pred: impl Fn(&str, &str) -> bool) -> Value {
    match (lhs, rhs) {
        (Value::Str(s), Value::Str(p)) => Value::Bool(pred(s, p)),
        _ => Value::Null,
    }
}

/// Simplified `=~` semantics: `.*` and `.` wildcards plus case-insensitive
/// prefix `(?i)` — covering the patterns used in IYP queries without a full
/// regex engine.
pub(crate) fn wildcard_match(s: &str, pattern: &str) -> bool {
    let (s, pattern) = if let Some(rest) = pattern.strip_prefix("(?i)") {
        (s.to_ascii_lowercase(), rest.to_ascii_lowercase())
    } else {
        (s.to_string(), pattern.to_string())
    };
    // Translate the pattern to segments split on `.*`; `.` matches any char.
    fn seg_match(s: &[char], seg: &[char]) -> bool {
        s.len() == seg.len() && s.iter().zip(seg.iter()).all(|(a, b)| *b == '.' || a == b)
    }
    let segs: Vec<Vec<char>> = pattern.split(".*").map(|p| p.chars().collect()).collect();
    let chars: Vec<char> = s.chars().collect();
    if segs.len() == 1 {
        return seg_match(&chars, &segs[0]);
    }
    let mut pos = 0usize;
    for (i, seg) in segs.iter().enumerate() {
        if seg.is_empty() {
            continue;
        }
        let found = if i == 0 {
            if chars.len() >= seg.len() && seg_match(&chars[..seg.len()], seg) {
                Some(0)
            } else {
                None
            }
        } else {
            (pos..=chars.len().saturating_sub(seg.len()))
                .find(|&j| seg_match(&chars[j..j + seg.len()], seg))
        };
        match found {
            Some(j) => pos = j + seg.len(),
            None => return false,
        }
    }
    // Last segment must anchor at the end unless pattern ends with `.*`.
    if let Some(last) = segs.last() {
        if !last.is_empty() {
            return chars.len() >= last.len()
                && seg_match(&chars[chars.len() - last.len()..], last);
        }
    }
    true
}

pub(crate) fn index_value(base: &Value, idx: &Value) -> Value {
    match (base, idx) {
        (Value::List(items), Value::Int(i)) => {
            let len = items.len() as i64;
            let i = if *i < 0 { len + i } else { *i };
            if i < 0 || i >= len {
                Value::Null
            } else {
                items[i as usize].clone()
            }
        }
        (Value::Map(m), Value::Str(k)) => m.get(k).cloned().unwrap_or(Value::Null),
        _ => Value::Null,
    }
}

pub(crate) fn slice_value(base: &Value, lo: Option<&Value>, hi: Option<&Value>) -> Value {
    let Value::List(items) = base else {
        return Value::Null;
    };
    let len = items.len() as i64;
    let norm = |v: Option<&Value>, default: i64| -> i64 {
        match v.and_then(|v| v.as_int()) {
            Some(i) if i < 0 => (len + i).max(0),
            Some(i) => i.min(len),
            None => default,
        }
    };
    let lo = norm(lo, 0);
    let hi = norm(hi, len);
    if lo >= hi {
        Value::List(Vec::new())
    } else {
        Value::List(items[lo as usize..hi as usize].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_expr, Evaluator};
    use crate::parser::parse_expression;
    use iyp_graphdb::props;

    fn eval_in(graph: &Graph, env: &Env, params: &Params, row: &Row, src: &str) -> Value {
        let c = compile_expr(env, &parse_expression(src).unwrap());
        Evaluator { graph, params }.eval_value(&c, row).unwrap()
    }

    fn ctx_eval(src: &str) -> Value {
        eval_in(&Graph::new(), &Env::new(), &Params::new(), &Vec::new(), src)
    }
    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(ctx_eval("1 + 2 * 3"), Value::Int(7));
        assert_eq!(ctx_eval("2 ^ 10"), Value::Float(1024.0));
        assert_eq!(ctx_eval("7 % 4"), Value::Int(3));
        assert_eq!(ctx_eval("-(3 - 5)"), Value::Int(2));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(ctx_eval("null AND false"), Value::Bool(false));
        assert_eq!(ctx_eval("null AND true"), Value::Null);
        assert_eq!(ctx_eval("null OR true"), Value::Bool(true));
        assert_eq!(ctx_eval("null OR false"), Value::Null);
        assert_eq!(ctx_eval("NOT null"), Value::Null);
        assert_eq!(ctx_eval("null = null"), Value::Null);
        assert_eq!(ctx_eval("null IS NULL"), Value::Bool(true));
    }

    #[test]
    fn in_operator_with_nulls() {
        assert_eq!(ctx_eval("2 IN [1, 2, 3]"), Value::Bool(true));
        assert_eq!(ctx_eval("4 IN [1, 2, 3]"), Value::Bool(false));
        assert_eq!(ctx_eval("4 IN [1, null]"), Value::Null);
        assert_eq!(ctx_eval("1 IN [1, null]"), Value::Bool(true));
    }

    #[test]
    fn string_predicates() {
        assert_eq!(ctx_eval("'Google' STARTS WITH 'Goo'"), Value::Bool(true));
        assert_eq!(ctx_eval("'Google' ENDS WITH 'gle'"), Value::Bool(true));
        assert_eq!(ctx_eval("'Google' CONTAINS 'oog'"), Value::Bool(true));
        assert_eq!(ctx_eval("'Google' CONTAINS 'xyz'"), Value::Bool(false));
    }

    #[test]
    fn wildcard_regex() {
        assert_eq!(ctx_eval("'AS2497' =~ 'AS.*'"), Value::Bool(true));
        assert_eq!(ctx_eval("'AS2497' =~ '.*97'"), Value::Bool(true));
        assert_eq!(ctx_eval("'AS2497' =~ 'AS..97'"), Value::Bool(true));
        assert_eq!(ctx_eval("'AS2497' =~ 'AS.97'"), Value::Bool(false));
        assert_eq!(ctx_eval("'Google' =~ '(?i)google'"), Value::Bool(true));
    }

    #[test]
    fn list_indexing_and_slicing() {
        assert_eq!(ctx_eval("[10, 20, 30][1]"), Value::Int(20));
        assert_eq!(ctx_eval("[10, 20, 30][-1]"), Value::Int(30));
        assert_eq!(ctx_eval("[10, 20, 30][9]"), Value::Null);
        assert_eq!(ctx_eval("[10, 20, 30][0..2]"), Value::from(vec![10i64, 20]));
        assert_eq!(ctx_eval("[10, 20, 30][..1]"), Value::from(vec![10i64]));
    }

    #[test]
    fn case_expressions() {
        assert_eq!(
            ctx_eval("CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END"),
            Value::from("b")
        );
        assert_eq!(
            ctx_eval("CASE 3 WHEN 1 THEN 'one' WHEN 3 THEN 'three' END"),
            Value::from("three")
        );
        assert_eq!(ctx_eval("CASE 9 WHEN 1 THEN 'one' END"), Value::Null);
    }

    #[test]
    fn list_comprehension() {
        assert_eq!(
            ctx_eval("[x IN [1, 2, 3, 4] WHERE x % 2 = 0 | x * 10]"),
            Value::from(vec![20i64, 40])
        );
        assert_eq!(ctx_eval("[x IN [1, 2, 3]]"), Value::from(vec![1i64, 2, 3]));
    }

    #[test]
    fn node_property_access() {
        let mut graph = Graph::new();
        let id = graph.add_node(["AS"], props!("asn" => 2497i64, "name" => "IIJ"));
        let mut env = Env::new();
        env.push("a");
        let params = Params::new();
        let row = vec![Entry::Node(id)];
        assert_eq!(
            eval_in(&graph, &env, &params, &row, "a.name"),
            Value::from("IIJ")
        );
        // Missing property is null, not an error.
        assert!(eval_in(&graph, &env, &params, &row, "a.nonexistent").is_null());
    }

    #[test]
    fn undefined_variable_errors() {
        let graph = Graph::new();
        let params = Params::new();
        let c = compile_expr(&Env::new(), &parse_expression("ghost").unwrap());
        let err = Evaluator {
            graph: &graph,
            params: &params,
        }
        .eval_value(&c, &Vec::new())
        .unwrap_err();
        assert!(err.message.contains("ghost"));
    }

    #[test]
    fn params_resolve() {
        let graph = Graph::new();
        let env = Env::new();
        let mut params = Params::new();
        params.insert("asn".into(), Value::Int(2497));
        assert_eq!(
            eval_in(&graph, &env, &params, &Vec::new(), "$asn + 1"),
            Value::Int(2498)
        );
        let c = compile_expr(&env, &parse_expression("$missing").unwrap());
        assert!(Evaluator {
            graph: &graph,
            params: &params,
        }
        .eval_value(&c, &Vec::new())
        .is_err());
    }
}
