//! Storage objects: the units the space optimizer assigns to variables,
//! stacks, or tree nodes.

use fnc2_ag::{AttrId, Grammar, LocalId, ProductionId};

/// Something that needs storage: an attribute declaration or a
/// production-local attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Object {
    /// An attribute `(phylum, name)` — one instance per tree node of that
    /// phylum.
    Attr(AttrId),
    /// A production-local attribute — one instance per node applying the
    /// production.
    Local(ProductionId, LocalId),
}

impl Object {
    /// Human-readable name, e.g. `Seq.scale` or `pair::tmp`.
    pub fn display(&self, grammar: &Grammar) -> String {
        match self {
            Object::Attr(a) => {
                let info = grammar.attr(*a);
                format!("{}.{}", grammar.phylum(info.phylum()).name(), info.name())
            }
            Object::Local(p, l) => {
                let prod = grammar.production(*p);
                format!("{}::{}", prod.name(), prod.locals()[l.index()].name())
            }
        }
    }
}

/// Dense indexing of all storage objects of a grammar: attributes by
/// their own dense id, then each production's locals in a block of their
/// own.
#[derive(Clone, Debug)]
pub struct ObjectIndex {
    list: Vec<Object>,
    /// Index of production `p`'s first local, at `local_base[p]`.
    local_base: Vec<usize>,
}

impl ObjectIndex {
    /// Builds the index: all attribute declarations, then all locals.
    pub fn new(grammar: &Grammar) -> Self {
        let mut list: Vec<Object> = (0..grammar.attr_count() as u32)
            .map(|i| Object::Attr(AttrId::from_raw(i)))
            .collect();
        let mut local_base = Vec::with_capacity(grammar.production_count());
        for p in grammar.productions() {
            local_base.push(list.len());
            for l in 0..grammar.production(p).locals().len() as u32 {
                list.push(Object::Local(p, LocalId::from_raw(l)));
            }
        }
        ObjectIndex { list, local_base }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if the grammar has no attributes or locals at all.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The dense index of `o`.
    pub fn index(&self, o: Object) -> usize {
        let i = match o {
            Object::Attr(a) => a.index(),
            Object::Local(p, l) => self.local_base[p.index()] + l.index(),
        };
        debug_assert_eq!(self.list[i], o, "object of another grammar");
        i
    }

    /// The object at dense index `i`.
    pub fn object(&self, i: usize) -> Object {
        self.list[i]
    }

    /// Iterates all objects with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Object)> + '_ {
        self.list.iter().copied().enumerate()
    }
}

/// A growable bitset over object indices.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ObjectSet {
    words: Vec<u64>,
}

impl ObjectSet {
    /// An empty set sized for `n` objects.
    pub fn new(n: usize) -> Self {
        ObjectSet {
            words: vec![0; n.div_ceil(64).max(1)],
        }
    }

    /// Inserts `i`; true if newly added.
    pub fn insert(&mut self, i: usize) -> bool {
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let new = *w & bit == 0;
        *w |= bit;
        new
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Unions `other` in; true if anything changed.
    pub fn union_in_place(&mut self, other: &ObjectSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The raw bit words, for serialization.
    pub fn raw_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a set from [`raw_words`](Self::raw_words) output.
    pub fn from_raw_words(words: Vec<u64>) -> Self {
        ObjectSet { words }
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{GrammarBuilder, ONode, Occ, Value};

    use super::*;

    #[test]
    fn index_covers_attrs_and_locals() {
        let mut g = GrammarBuilder::new("t");
        let s = g.phylum("S");
        let v = g.syn(s, "v");
        let leaf = g.production("leaf", s, &[]);
        let tmp = g.local(leaf, "tmp");
        g.constant(leaf, ONode::Local(tmp), Value::Int(1));
        g.copy(leaf, Occ::lhs(v), ONode::Local(tmp));
        let g = g.finish().unwrap();
        let ix = ObjectIndex::new(&g);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.object(0), Object::Attr(v));
        assert_eq!(ix.index(Object::Local(leaf, tmp)), 1);
        assert_eq!(Object::Attr(v).display(&g), "S.v");
        assert_eq!(Object::Local(leaf, tmp).display(&g), "leaf::tmp");
    }

    #[test]
    fn object_set_ops() {
        let mut s = ObjectSet::new(70);
        assert!(s.insert(65));
        assert!(!s.insert(65));
        assert!(s.contains(65));
        assert!(!s.contains(0));
        let mut t = ObjectSet::new(70);
        t.insert(3);
        assert!(s.union_in_place(&t));
        assert_eq!(s.count(), 2);
        assert!(!s.union_in_place(&t));
    }
}
