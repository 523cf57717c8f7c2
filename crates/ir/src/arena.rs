//! Arena-interned expression storage: the interpreter's compiled form.
//!
//! [`Expr`] is a pointer tree: every operator node is a separate heap
//! `Box`, so evaluating a statement once per iteration chases one cache
//! line per node. [`ExprArena`] stores the same expressions as a
//! contiguous slab of `Copy` [`ExprNode`]s addressed by [`ExprId`]
//! handles, with hash-consing so structurally identical subexpressions
//! intern to the same id. Evaluating a statement is then an index chase
//! through one dense vector.
//!
//! The arena is a *view*, not a new IR: programs are still built and
//! stored as boxed [`Expr`] trees, and [`PreparedBody`] interns a
//! program's body when [`crate::interp::run`] starts — the one caller
//! that walks a body often enough to repay the interning. Printers and
//! access collection walk a body once and read the boxed tree directly.

use crate::stmt::ArrayRef;
use crate::{BinOp, Expr, Program, Stmt};
use std::collections::HashMap;

/// Handle to an interned expression node. Copyable and 4 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(u32);

/// Handle to an interned array reference payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefId(u32);

/// One interned expression node. The mirror of [`Expr`] with `Box`
/// edges replaced by [`ExprId`] handles and the (non-`Copy`) array
/// reference payload moved behind a [`RefId`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExprNode {
    /// A read of an array element.
    Access(RefId),
    /// A floating-point literal.
    Lit(f64),
    /// A named scalar coefficient index.
    Coef(usize),
    /// A binary operation.
    Bin(BinOp, ExprId, ExprId),
    /// Arithmetic negation.
    Neg(ExprId),
}

/// Hash-consing key: literals compare by bit pattern so `-0.0`/`0.0`
/// and NaNs intern stably without an `Eq` impl on `f64`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum DedupKey {
    Lit(u64),
    Coef(usize),
    Bin(BinOp, u32, u32),
    Neg(u32),
}

/// A contiguous, hash-consed slab of expression nodes.
#[derive(Debug, Default, Clone)]
pub struct ExprArena {
    nodes: Vec<ExprNode>,
    refs: Vec<ArrayRef>,
    dedup: HashMap<DedupKey, ExprId>,
}

impl ExprArena {
    /// An empty arena.
    pub fn new() -> ExprArena {
        ExprArena::default()
    }

    /// Number of distinct interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind a handle (copied out of the slab).
    ///
    /// # Panics
    ///
    /// Panics if the id is from a different arena.
    #[inline]
    pub fn node(&self, id: ExprId) -> ExprNode {
        self.nodes[id.0 as usize]
    }

    /// The array reference behind a [`RefId`].
    ///
    /// # Panics
    ///
    /// Panics if the id is from a different arena.
    #[inline]
    pub fn array_ref(&self, id: RefId) -> &ArrayRef {
        &self.refs[id.0 as usize]
    }

    fn push(&mut self, key: DedupKey, node: ExprNode) -> ExprId {
        if let Some(&id) = self.dedup.get(&key) {
            return id;
        }
        let id = ExprId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        self.nodes.push(node);
        self.dedup.insert(key, id);
        id
    }

    /// Interns an array read. Identical references (the common case:
    /// the same element read in several statements) share one payload,
    /// found by linear scan — bodies have a handful of distinct
    /// references, so this beats hashing the subscript vectors.
    pub fn access(&mut self, r: &ArrayRef) -> ExprId {
        let rid = match self.refs.iter().position(|x| x == r) {
            Some(i) => RefId(i as u32),
            None => {
                let i = RefId(u32::try_from(self.refs.len()).expect("arena overflow"));
                self.refs.push(r.clone());
                i
            }
        };
        let id = ExprId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        // Access nodes dedup through the ref table instead of the key
        // map; a second Access(rid) would be harmless but wasteful.
        if let Some(pos) = self
            .nodes
            .iter()
            .position(|n| matches!(n, ExprNode::Access(r2) if *r2 == rid))
        {
            return ExprId(pos as u32);
        }
        self.nodes.push(ExprNode::Access(rid));
        id
    }

    /// Interns a literal.
    pub fn lit(&mut self, v: f64) -> ExprId {
        self.push(DedupKey::Lit(v.to_bits()), ExprNode::Lit(v))
    }

    /// Interns a coefficient reference.
    pub fn coef(&mut self, i: usize) -> ExprId {
        self.push(DedupKey::Coef(i), ExprNode::Coef(i))
    }

    /// Interns a binary operation over already-interned operands.
    pub fn bin(&mut self, op: BinOp, a: ExprId, b: ExprId) -> ExprId {
        self.push(DedupKey::Bin(op, a.0, b.0), ExprNode::Bin(op, a, b))
    }

    /// Interns a negation.
    pub fn neg(&mut self, a: ExprId) -> ExprId {
        self.push(DedupKey::Neg(a.0), ExprNode::Neg(a))
    }

    /// Interns a boxed expression tree bottom-up.
    pub fn intern(&mut self, e: &Expr) -> ExprId {
        match e {
            Expr::Access(r) => self.access(r),
            Expr::Lit(v) => self.lit(*v),
            Expr::Coef(i) => self.coef(*i),
            Expr::Bin(op, a, b) => {
                let ia = self.intern(a);
                let ib = self.intern(b);
                self.bin(*op, ia, ib)
            }
            Expr::Neg(a) => {
                let ia = self.intern(a);
                self.neg(ia)
            }
        }
    }

    /// Reconstructs the boxed tree for a handle (shared subexpressions
    /// are duplicated, exactly as the original tree stored them).
    pub fn to_expr(&self, id: ExprId) -> Expr {
        match self.node(id) {
            ExprNode::Access(r) => Expr::Access(self.array_ref(r).clone()),
            ExprNode::Lit(v) => Expr::Lit(v),
            ExprNode::Coef(i) => Expr::Coef(i),
            ExprNode::Bin(op, a, b) => {
                Expr::Bin(op, Box::new(self.to_expr(a)), Box::new(self.to_expr(b)))
            }
            ExprNode::Neg(a) => Expr::Neg(Box::new(self.to_expr(a))),
        }
    }
}

/// A program body interned into one arena: the entry point hot paths
/// use to trade the boxed statement trees for slab walks.
#[derive(Debug, Clone)]
pub struct PreparedBody {
    /// The shared expression slab.
    pub arena: ExprArena,
    /// Per statement: the write reference and the interned right-hand
    /// side, in body order.
    pub stmts: Vec<(ArrayRef, ExprId)>,
}

impl PreparedBody {
    /// Interns every statement of `program`'s body.
    pub fn new(program: &Program) -> PreparedBody {
        let mut arena = ExprArena::new();
        let stmts = program
            .nest
            .body
            .iter()
            .map(|stmt| {
                let Stmt::Assign { lhs, rhs } = stmt;
                let id = arena.intern(rhs);
                (lhs.clone(), id)
            })
            .collect();
        PreparedBody { arena, stmts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrayId;
    use an_poly::{Affine, Space};

    fn sample_expr() -> Expr {
        let s = Space::new(&["i"], &[]);
        let r1 = ArrayRef::new(ArrayId(0), vec![Affine::var(&s, 0, 1)]);
        let r2 = ArrayRef::new(ArrayId(1), vec![Affine::var(&s, 0, 2)]);
        Expr::add(
            Expr::mul(Expr::access(r1.clone()), Expr::lit(2.0)),
            Expr::neg(Expr::access(r2)),
        )
    }

    #[test]
    fn intern_round_trips() {
        let e = sample_expr();
        let mut arena = ExprArena::new();
        let id = arena.intern(&e);
        assert_eq!(arena.to_expr(id), e);
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let e = sample_expr();
        let mut arena = ExprArena::new();
        let a = arena.intern(&e);
        let b = arena.intern(&e);
        assert_eq!(a, b);
        let before = arena.len();
        arena.intern(&e);
        assert_eq!(arena.len(), before);
    }
}
