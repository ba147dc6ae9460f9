//! Built-in scalar and entity functions.

use crate::error::CypherError;
use crate::eval::Entry;
use iyp_graphdb::{Graph, Value};

/// Invokes a built-in function by (lower-cased) name.
pub fn call_function(graph: &Graph, name: &str, args: &[Entry]) -> Result<Value, CypherError> {
    let arity = |n: usize| -> Result<(), CypherError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(CypherError::runtime(format!(
                "{name}() expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    let val = |i: usize| args[i].to_value(graph);

    match name {
        // ---- entity functions ----
        "id" => {
            arity(1)?;
            Ok(match &args[0] {
                Entry::Node(n) => Value::Int(n.0 as i64),
                Entry::Rel(r) => Value::Int(r.0 as i64),
                Entry::Val(Value::Null) => Value::Null,
                _ => return Err(CypherError::runtime("id() expects a node or relationship")),
            })
        }
        "labels" => {
            arity(1)?;
            Ok(match &args[0] {
                Entry::Node(n) => {
                    Value::List(graph.node_labels(*n).into_iter().map(Value::from).collect())
                }
                Entry::Val(Value::Null) => Value::Null,
                _ => return Err(CypherError::runtime("labels() expects a node")),
            })
        }
        "type" => {
            arity(1)?;
            Ok(match &args[0] {
                Entry::Rel(r) => graph
                    .rel(*r)
                    .map(|rec| Value::from(graph.rel_type_name(rec.ty)))
                    .unwrap_or(Value::Null),
                Entry::Val(Value::Null) => Value::Null,
                _ => return Err(CypherError::runtime("type() expects a relationship")),
            })
        }
        "startnode" | "endnode" => {
            arity(1)?;
            Ok(match &args[0] {
                Entry::Rel(r) => graph
                    .rel(*r)
                    .map(|rec| {
                        let n = if name == "startnode" {
                            rec.src
                        } else {
                            rec.dst
                        };
                        Entry::Node(n).to_value(graph)
                    })
                    .unwrap_or(Value::Null),
                Entry::Val(Value::Null) => Value::Null,
                _ => {
                    return Err(CypherError::runtime(
                        "startNode()/endNode() expect a relationship",
                    ))
                }
            })
        }
        "properties" => {
            arity(1)?;
            Ok(match &args[0] {
                Entry::Node(n) => graph
                    .node(*n)
                    .map(|rec| rec.props.to_value())
                    .unwrap_or(Value::Null),
                Entry::Rel(r) => graph
                    .rel(*r)
                    .map(|rec| rec.props.to_value())
                    .unwrap_or(Value::Null),
                Entry::Val(v @ Value::Map(_)) => v.clone(),
                Entry::Val(Value::Null) => Value::Null,
                _ => {
                    return Err(CypherError::runtime(
                        "properties() expects an entity or map",
                    ))
                }
            })
        }
        "keys" => {
            arity(1)?;
            let v = match &args[0] {
                Entry::Node(n) => graph
                    .node(*n)
                    .map(|rec| rec.props.to_value())
                    .unwrap_or(Value::Null),
                Entry::Rel(r) => graph
                    .rel(*r)
                    .map(|rec| rec.props.to_value())
                    .unwrap_or(Value::Null),
                e => e.to_value(graph),
            };
            Ok(match v {
                Value::Map(m) => Value::List(m.keys().map(|k| Value::from(k.as_str())).collect()),
                Value::Null => Value::Null,
                _ => return Err(CypherError::runtime("keys() expects a map or entity")),
            })
        }
        "length" | "size" => {
            arity(1)?;
            Ok(match &args[0] {
                Entry::Path(_, rels) => Value::Int(rels.len() as i64),
                e => match e.to_value(graph) {
                    Value::List(items) => Value::Int(items.len() as i64),
                    Value::Str(s) => Value::Int(s.chars().count() as i64),
                    Value::Map(m) => {
                        // A path projected to a map still answers length().
                        match m.get("_rels") {
                            Some(Value::List(rels)) => Value::Int(rels.len() as i64),
                            _ => Value::Int(m.len() as i64),
                        }
                    }
                    Value::Null => Value::Null,
                    other => {
                        return Err(CypherError::runtime(format!(
                            "{name}() cannot measure {}",
                            other.type_name()
                        )))
                    }
                },
            })
        }
        "nodes" | "relationships" => {
            arity(1)?;
            Ok(match &args[0] {
                Entry::Path(nodes, rels) => {
                    if name == "nodes" {
                        Value::List(
                            nodes
                                .iter()
                                .map(|n| Entry::Node(*n).to_value(graph))
                                .collect(),
                        )
                    } else {
                        Value::List(
                            rels.iter()
                                .map(|r| Entry::Rel(*r).to_value(graph))
                                .collect(),
                        )
                    }
                }
                Entry::Val(Value::Null) => Value::Null,
                _ => return Err(CypherError::runtime(format!("{name}() expects a path"))),
            })
        }

        // ---- scalar functions ----
        "coalesce" => {
            for a in args {
                let v = a.to_value(graph);
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        "head" => {
            arity(1)?;
            Ok(match val(0) {
                Value::List(items) => items.first().cloned().unwrap_or(Value::Null),
                Value::Null => Value::Null,
                _ => return Err(CypherError::runtime("head() expects a list")),
            })
        }
        "last" => {
            arity(1)?;
            Ok(match val(0) {
                Value::List(items) => items.last().cloned().unwrap_or(Value::Null),
                Value::Null => Value::Null,
                _ => return Err(CypherError::runtime("last() expects a list")),
            })
        }
        "reverse" => {
            arity(1)?;
            Ok(match val(0) {
                Value::List(mut items) => {
                    items.reverse();
                    Value::List(items)
                }
                Value::Str(s) => Value::Str(s.chars().rev().collect()),
                Value::Null => Value::Null,
                _ => return Err(CypherError::runtime("reverse() expects a list or string")),
            })
        }
        "range" => {
            if args.len() < 2 || args.len() > 3 {
                return Err(CypherError::runtime("range() expects 2 or 3 arguments"));
            }
            let lo = val(0)
                .as_int()
                .ok_or_else(|| CypherError::runtime("range() bounds must be integers"))?;
            let hi = val(1)
                .as_int()
                .ok_or_else(|| CypherError::runtime("range() bounds must be integers"))?;
            let step = if args.len() == 3 {
                val(2)
                    .as_int()
                    .ok_or_else(|| CypherError::runtime("range() step must be an integer"))?
            } else {
                1
            };
            if step == 0 {
                return Err(CypherError::runtime("range() step must not be zero"));
            }
            let mut out = Vec::new();
            let mut x = lo;
            while (step > 0 && x <= hi) || (step < 0 && x >= hi) {
                out.push(Value::Int(x));
                if out.len() > 1_000_000 {
                    return Err(CypherError::runtime("range() too large"));
                }
                // Stepping past the i64 bound ends the range.
                match x.checked_add(step) {
                    Some(next) => x = next,
                    None => break,
                }
            }
            Ok(Value::List(out))
        }

        // ---- string functions ----
        "toupper" => str_fn(name, graph, args, |s| s.to_uppercase()),
        "tolower" => str_fn(name, graph, args, |s| s.to_lowercase()),
        "trim" => str_fn(name, graph, args, |s| s.trim().to_string()),
        "ltrim" => str_fn(name, graph, args, |s| s.trim_start().to_string()),
        "rtrim" => str_fn(name, graph, args, |s| s.trim_end().to_string()),
        "tostring" => {
            arity(1)?;
            Ok(match val(0) {
                Value::Null => Value::Null,
                v => Value::Str(v.to_string()),
            })
        }
        "tointeger" => {
            arity(1)?;
            Ok(match val(0) {
                Value::Int(i) => Value::Int(i),
                Value::Float(f) => Value::Int(f as i64),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .or_else(|_| s.trim().parse::<f64>().map(|f| Value::Int(f as i64)))
                    .unwrap_or(Value::Null),
                Value::Bool(b) => Value::Int(i64::from(b)),
                _ => Value::Null,
            })
        }
        "tofloat" => {
            arity(1)?;
            Ok(match val(0) {
                Value::Int(i) => Value::Float(i as f64),
                Value::Float(f) => Value::Float(f),
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Float)
                    .unwrap_or(Value::Null),
                _ => Value::Null,
            })
        }
        "split" => {
            arity(2)?;
            match (val(0), val(1)) {
                (Value::Str(s), Value::Str(sep)) => Ok(Value::List(
                    s.split(sep.as_str()).map(Value::from).collect(),
                )),
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                _ => Err(CypherError::runtime("split() expects two strings")),
            }
        }
        "replace" => {
            arity(3)?;
            match (val(0), val(1), val(2)) {
                (Value::Str(s), Value::Str(from), Value::Str(to)) => {
                    Ok(Value::Str(s.replace(from.as_str(), to.as_str())))
                }
                _ => Ok(Value::Null),
            }
        }
        "substring" => {
            if args.len() < 2 || args.len() > 3 {
                return Err(CypherError::runtime("substring() expects 2 or 3 arguments"));
            }
            match (val(0), val(1)) {
                (Value::Str(s), Value::Int(start)) => {
                    let chars: Vec<char> = s.chars().collect();
                    let start = (start.max(0) as usize).min(chars.len());
                    let end = if args.len() == 3 {
                        match val(2) {
                            Value::Int(len) => (start + len.max(0) as usize).min(chars.len()),
                            _ => chars.len(),
                        }
                    } else {
                        chars.len()
                    };
                    Ok(Value::Str(chars[start..end].iter().collect()))
                }
                _ => Ok(Value::Null),
            }
        }
        "left" => {
            arity(2)?;
            match (val(0), val(1)) {
                (Value::Str(s), Value::Int(n)) => {
                    Ok(Value::Str(s.chars().take(n.max(0) as usize).collect()))
                }
                _ => Ok(Value::Null),
            }
        }
        "right" => {
            arity(2)?;
            match (val(0), val(1)) {
                (Value::Str(s), Value::Int(n)) => {
                    let chars: Vec<char> = s.chars().collect();
                    let n = (n.max(0) as usize).min(chars.len());
                    Ok(Value::Str(chars[chars.len() - n..].iter().collect()))
                }
                _ => Ok(Value::Null),
            }
        }

        // ---- numeric functions ----
        "abs" => num_fn(name, graph, args, |f| f.abs(), Some(|i: i64| i.abs())),
        "sign" => num_fn(name, graph, args, |f| f.signum(), Some(|i: i64| i.signum())),
        "sqrt" => num_fn(name, graph, args, |f| f.sqrt(), None),
        "exp" => num_fn(name, graph, args, |f| f.exp(), None),
        "log" => num_fn(name, graph, args, |f| f.ln(), None),
        "log10" => num_fn(name, graph, args, |f| f.log10(), None),
        "ceil" => num_fn(name, graph, args, |f| f.ceil(), Some(|i: i64| i)),
        "floor" => num_fn(name, graph, args, |f| f.floor(), Some(|i: i64| i)),
        "round" => {
            if args.is_empty() || args.len() > 2 {
                return Err(CypherError::runtime("round() expects 1 or 2 arguments"));
            }
            let v = val(0);
            if v.is_null() {
                return Ok(Value::Null);
            }
            let f = v
                .as_f64()
                .ok_or_else(|| CypherError::runtime("round() expects a number"))?;
            if args.len() == 2 {
                let digits = val(1).as_int().unwrap_or(0).clamp(0, 12) as u32;
                let scale = 10f64.powi(digits as i32);
                Ok(Value::Float((f * scale).round() / scale))
            } else {
                Ok(Value::Float(f.round()))
            }
        }

        other => Err(CypherError::runtime(format!("unknown function {other}()"))),
    }
}

fn str_fn(
    name: &str,
    graph: &Graph,
    args: &[Entry],
    f: impl Fn(&str) -> String,
) -> Result<Value, CypherError> {
    if args.len() != 1 {
        return Err(CypherError::runtime(format!(
            "{name}() expects 1 argument, got {}",
            args.len()
        )));
    }
    match &args[0].to_value(graph) {
        Value::Str(s) => Ok(Value::Str(f(s))),
        Value::Null => Ok(Value::Null),
        other => Err(CypherError::runtime(format!(
            "{name}() expects a string, got {}",
            other.type_name()
        ))),
    }
}

fn num_fn(
    name: &str,
    graph: &Graph,
    args: &[Entry],
    ff: impl Fn(f64) -> f64,
    fi: Option<fn(i64) -> i64>,
) -> Result<Value, CypherError> {
    if args.len() != 1 {
        return Err(CypherError::runtime(format!(
            "{name}() expects 1 argument, got {}",
            args.len()
        )));
    }
    match &args[0].to_value(graph) {
        Value::Int(i) => match fi {
            Some(fi) => Ok(Value::Int(fi(*i))),
            None => Ok(Value::Float(ff(*i as f64))),
        },
        Value::Float(f) => Ok(Value::Float(ff(*f))),
        Value::Null => Ok(Value::Null),
        other => Err(CypherError::runtime(format!(
            "{name}() expects a number, got {}",
            other.type_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_graphdb::props;

    fn g() -> Graph {
        Graph::new()
    }

    fn v(x: impl Into<Value>) -> Entry {
        Entry::Val(x.into())
    }

    #[test]
    fn string_functions() {
        let g = g();
        assert_eq!(
            call_function(&g, "toupper", &[v("abc")]).unwrap(),
            Value::from("ABC")
        );
        assert_eq!(
            call_function(&g, "trim", &[v("  x ")]).unwrap(),
            Value::from("x")
        );
        assert_eq!(
            call_function(&g, "split", &[v("a,b,c"), v(",")]).unwrap(),
            Value::from(vec!["a", "b", "c"])
        );
        assert_eq!(
            call_function(&g, "substring", &[v("prefix"), v(3i64)]).unwrap(),
            Value::from("fix")
        );
        assert_eq!(
            call_function(&g, "replace", &[v("a-b"), v("-"), v("+")]).unwrap(),
            Value::from("a+b")
        );
        // Null propagates.
        assert!(call_function(&g, "toupper", &[v(Value::Null)])
            .unwrap()
            .is_null());
    }

    #[test]
    fn numeric_functions() {
        let g = g();
        assert_eq!(
            call_function(&g, "abs", &[v(-5i64)]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            call_function(&g, "sqrt", &[v(9i64)]).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            call_function(&g, "round", &[v(2.6)]).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            call_function(&g, "round", &[v(2.345), v(2i64)]).unwrap(),
            Value::Float(2.35)
        );
        assert_eq!(
            call_function(&g, "floor", &[v(2.9)]).unwrap(),
            Value::Float(2.0)
        );
    }

    #[test]
    fn conversions() {
        let g = g();
        assert_eq!(
            call_function(&g, "tointeger", &[v("42")]).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            call_function(&g, "tointeger", &[v("4.7")]).unwrap(),
            Value::Int(4)
        );
        assert!(call_function(&g, "tointeger", &[v("nope")])
            .unwrap()
            .is_null());
        assert_eq!(
            call_function(&g, "tofloat", &[v("2.5")]).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            call_function(&g, "tostring", &[v(7i64)]).unwrap(),
            Value::from("7")
        );
    }

    #[test]
    fn list_functions() {
        let g = g();
        let list = v(vec![1i64, 2, 3]);
        assert_eq!(
            call_function(&g, "head", std::slice::from_ref(&list)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            call_function(&g, "last", std::slice::from_ref(&list)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            call_function(&g, "size", std::slice::from_ref(&list)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            call_function(&g, "reverse", &[list]).unwrap(),
            Value::from(vec![3i64, 2, 1])
        );
        assert_eq!(
            call_function(&g, "range", &[v(1i64), v(4i64)]).unwrap(),
            Value::from(vec![1i64, 2, 3, 4])
        );
        assert_eq!(
            call_function(&g, "range", &[v(10i64), v(4i64), v(-3i64)]).unwrap(),
            Value::from(vec![10i64, 7, 4])
        );
    }

    #[test]
    fn range_stops_at_the_i64_bounds() {
        let g = g();
        assert_eq!(
            call_function(&g, "range", &[v(i64::MAX - 1), v(i64::MAX)]).unwrap(),
            Value::from(vec![i64::MAX - 1, i64::MAX])
        );
        assert_eq!(
            call_function(&g, "range", &[v(i64::MIN + 1), v(i64::MIN), v(-1i64)]).unwrap(),
            Value::from(vec![i64::MIN + 1, i64::MIN])
        );
        assert_eq!(
            call_function(&g, "range", &[v(i64::MAX - 5), v(i64::MAX), v(4i64)]).unwrap(),
            Value::from(vec![i64::MAX - 5, i64::MAX - 1])
        );
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        let g = g();
        assert_eq!(
            call_function(&g, "coalesce", &[v(Value::Null), v("x"), v("y")]).unwrap(),
            Value::from("x")
        );
        assert!(call_function(&g, "coalesce", &[v(Value::Null)])
            .unwrap()
            .is_null());
    }

    #[test]
    fn entity_functions() {
        let mut graph = Graph::new();
        let a = graph.add_node(["AS", "Tier1"], props!("asn" => 2497i64));
        let b = graph.add_node(["Country"], props!());
        let r = graph.add_rel(a, "COUNTRY", b, props!()).unwrap();

        assert_eq!(
            call_function(&graph, "id", &[Entry::Node(a)]).unwrap(),
            Value::Int(a.0 as i64)
        );
        assert_eq!(
            call_function(&graph, "labels", &[Entry::Node(a)]).unwrap(),
            Value::from(vec!["AS", "Tier1"])
        );
        assert_eq!(
            call_function(&graph, "type", &[Entry::Rel(r)]).unwrap(),
            Value::from("COUNTRY")
        );
        assert_eq!(
            call_function(&graph, "keys", &[Entry::Node(a)]).unwrap(),
            Value::from(vec!["asn"])
        );
        // Path length.
        let p = Entry::Path(vec![a, b], vec![r]);
        assert_eq!(
            call_function(&graph, "length", &[p]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn unknown_function_is_an_error() {
        let g = g();
        let err = call_function(&g, "frobnicate", &[]).unwrap_err();
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let g = g();
        assert!(call_function(&g, "abs", &[]).is_err());
        assert!(call_function(&g, "split", &[v("a")]).is_err());
    }
}
