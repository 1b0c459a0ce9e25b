//! Abstract syntax for the Fortran-D subset.

/// A whole program: declarations, distribution directives and executable statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

/// How a decomposition is distributed over processors.
#[derive(Debug, Clone, PartialEq)]
pub enum DistSpec {
    /// HPF BLOCK.
    Block,
    /// HPF CYCLIC.
    Cyclic,
    /// Irregular distribution through a map array (Figure 7): element `i` lives on the
    /// processor named by `map(i)`.
    Map(String),
}

/// The reduction operations of the `REDUCE` intrinsic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `REDUCE(SUM, target, value)` — accumulate into the target element.
    Sum,
    /// `REDUCE(APPEND, target, value)` — append to the target's unordered list
    /// (the new intrinsic proposed in §5.2.1).
    Append,
}

/// Comparison operators of `IF` conditions (`.EQ.`, `.NE.`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `.EQ.`
    Eq,
    /// `.NE.`
    Ne,
    /// `.LT.`
    Lt,
    /// `.LE.`
    Le,
    /// `.GT.`
    Gt,
    /// `.GE.`
    Ge,
}

/// An `IF` condition: `lhs op rhs` over integer expressions.
///
/// The intrinsics `MYRANK` (this processor's id, `0..NPROCS`) and `NPROCS` may appear
/// as variables; a condition mentioning `MYRANK` is *rank-dependent*, which the
/// collective-matching analysis (`crate::analysis`) treats as the SPMD danger zone.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// Left-hand side.
    pub lhs: Expr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: Expr,
}

impl Cond {
    /// Whether the condition mentions the `MYRANK` intrinsic (directly in either
    /// side), making its value differ across ranks.
    pub fn is_rank_dependent(&self) -> bool {
        fn mentions_myrank(e: &Expr) -> bool {
            match e {
                Expr::Int(_) | Expr::Real(_) => false,
                Expr::Var(v) => v == "MYRANK",
                Expr::Element(r) => mentions_myrank(&r.index),
                Expr::Binary(_, a, b) => mentions_myrank(a) || mentions_myrank(b),
            }
        }
        mentions_myrank(&self.lhs) || mentions_myrank(&self.rhs)
    }
}

/// A reference to an array element: `array(index expression)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayRef {
    /// The array's (upper-cased) name.
    pub array: String,
    /// Subscript expression.
    pub index: Box<Expr>,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// A loop variable (or named scalar constant supplied by the host).
    Var(String),
    /// An array element.
    Element(ArrayRef),
    /// `lhs op rhs`.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Statements of the subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `REAL x(n), y(n)` — declare distributed real arrays.
    RealDecl {
        /// `(name, size)` pairs.
        arrays: Vec<(String, usize)>,
    },
    /// `INTEGER map(n), jnb(m)` — declare (replicated) integer arrays.
    IntegerDecl {
        /// `(name, size)` pairs.
        arrays: Vec<(String, usize)>,
    },
    /// `DECOMPOSITION reg(n)`.
    Decomposition {
        /// Template name.
        name: String,
        /// Template size.
        size: usize,
    },
    /// `DISTRIBUTE reg(BLOCK)` / `DISTRIBUTE reg(map)`.
    Distribute {
        /// The decomposition being distributed.
        decomp: String,
        /// The distribution specification.
        spec: DistSpec,
        /// 1-based source line of the directive (for lowering diagnostics).
        line: usize,
    },
    /// `ALIGN x, y WITH reg`.
    Align {
        /// Arrays being aligned.
        arrays: Vec<String>,
        /// Target decomposition.
        decomp: String,
    },
    /// `FORALL var = lo, hi … END FORALL` (possibly nested).
    Forall {
        /// Loop variable name.
        var: String,
        /// Lower bound (inclusive).
        lo: Expr,
        /// Upper bound (inclusive), Fortran style.
        hi: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// 1-based source line of the `FORALL` keyword (for optimizer diagnostics).
        line: usize,
    },
    /// `DO var = lo, hi … END DO` — a sequential *time* loop.  Unlike `FORALL` its
    /// iterations run in order on every rank, and its body holds whole executable
    /// statements (FORALLs, `DISTRIBUTE`s, `IF`s, nested `DO`s).  The loop variable is
    /// a step counter only — referencing it inside the body is a lowering error, which
    /// is what lets the optimizer treat the body as iteration-invariant code.
    Do {
        /// Loop variable name (a step counter; not referenceable in the body).
        var: String,
        /// Lower bound (inclusive).
        lo: Expr,
        /// Upper bound (inclusive), Fortran style.
        hi: Expr,
        /// Loop body (whole statements).
        body: Vec<Stmt>,
        /// 1-based source line of the `DO` keyword (for optimizer diagnostics).
        line: usize,
    },
    /// `REDUCE(op, target, value)`.
    Reduce {
        /// Reduction operator.
        op: ReduceOp,
        /// Target element (or bucket, for APPEND).
        target: ArrayRef,
        /// Contributed value.
        value: Expr,
    },
    /// `target = value` plain assignment inside a FORALL.
    Assign {
        /// Assigned element.
        target: ArrayRef,
        /// Right-hand side.
        value: Expr,
    },
    /// `IF (cond) THEN … [ELSE …] END IF` at statement level, guarding executable
    /// steps (loops, redistributions).
    If {
        /// The branch condition.
        cond: Cond,
        /// Statements of the THEN branch.
        then_branch: Vec<Stmt>,
        /// Statements of the ELSE branch (empty when absent).
        else_branch: Vec<Stmt>,
        /// 1-based source line of the `IF` keyword (for lowering diagnostics).
        line: usize,
    },
}
