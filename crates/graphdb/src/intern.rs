//! String interning for node labels and relationship types.
//!
//! Labels and relationship types are drawn from small closed sets (the IYP
//! schema has ~15 of each), so the store keys adjacency and label indexes by
//! small integer symbols instead of strings.

use serde::{Content, Deserialize, Serialize};
use std::collections::HashMap;

/// An interned symbol. The inner index is stable for the lifetime of the
/// owning [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Sym(pub u32);

/// A bidirectional string ↔ symbol table.
#[derive(Debug, Default, Clone, Serialize)]
pub struct Interner {
    names: Vec<String>,
    #[serde(skip)]
    lookup: HashMap<String, Sym>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&sym) = self.lookup.get(name) {
            return sym;
        }
        let sym = Sym(self.names.len() as u32);
        self.names.push(name.to_string());
        self.lookup.insert(name.to_string(), sym);
        sym
    }

    /// Looks up an existing symbol without creating it.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.lookup.get(name).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.0 as usize]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(symbol, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Sym(i as u32), n.as_str()))
    }
}

impl Deserialize for Interner {
    /// Reads the name table and rebuilds the reverse lookup (serde skips
    /// it), rejecting a name listed twice.
    fn deserialize(c: &Content) -> Result<Self, serde::Error> {
        let mut interner = Interner::new();
        for name in Vec::<String>::deserialize(&c["names"])? {
            if interner.get(&name).is_some() {
                let msg = format!("symbol `{name}` is listed twice");
                return Err(serde::Error::custom(msg));
            }
            interner.intern(&name);
        }
        Ok(interner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("AS");
        let b = i.intern("Prefix");
        assert_eq!(i.intern("AS"), a);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "AS");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_does_not_create() {
        let mut i = Interner::new();
        assert!(i.get("AS").is_none());
        i.intern("AS");
        assert!(i.get("AS").is_some());
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn lookup_survives_serde_roundtrip() {
        let mut i = Interner::new();
        i.intern("AS");
        i.intern("Country");
        let json = serde_json::to_string(&i).unwrap();
        let back: Interner = serde_json::from_str(&json).unwrap();
        assert_eq!(back.get("Country"), Some(Sym(1)));
        assert_eq!(back.resolve(Sym(0)), "AS");
        assert!(serde_json::from_str::<Interner>(r#"{"names":["AS","AS"]}"#).is_err());
    }
}
