//! Slot-indexed loop code: the pre-resolved form of a `FORALL` that lowering builds
//! once and both halves of the executor ([`crate::interp`]) run.
//!
//! Every name is resolved here, so an unknown one is a lowering error with its line,
//! never a run-time panic: arrays become slots of [`Names`], loop variables (and, in
//! `IF` conditions, `MYRANK`/`NPROCS`) become integer registers, bounds and values
//! become flat register code with relative jumps, and each *distinct* subscript
//! expression indexing a distributed array becomes a numbered **subscript slot**.  A
//! slot's integer code sits once at the top of the body of the loop binding its
//! innermost variable, bracketed by [`Op::Sub`]/[`Op::SubEnd`]: the inspector pass
//! runs it and, at each statement, records one reference per *occurrence* of a
//! subscript in source order ([`Code::refs`]); the executor pass skips it and reads
//! the localized index from the slot's stream instead.  Reads of arrays the loop does
//! not assign are hoisted the same way: one [`Op::FLoad`] right behind the slot's
//! code, so `x(i)` is loaded once per `i`, not once per use in the inner loop.

use crate::ast::{ArrayRef, BinOp, Expr, ReduceOp, Stmt};
use crate::lower::Decls;

/// A register number (integer and real registers are numbered separately).
pub type Reg = u32;

/// Slot tables: position in each list is the slot the executor's `Vec`-backed state
/// is indexed by (declaration order, so numbering is deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Names {
    /// Distributed real arrays, in `ALIGN` order.
    pub reals: Vec<String>,
    /// Replicated integer arrays, in declaration order.
    pub integers: Vec<String>,
    /// Decompositions, in declaration order.
    pub decomps: Vec<String>,
}

/// The slot of `name` in one of the [`Names`] lists.
pub fn slot_of(list: &[String], name: &str) -> Option<usize> {
    list.iter().position(|n| n == name)
}

/// One instruction.  Jumps are relative, so code blocks concatenate freely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `i[dst] = v`.
    IConst { dst: Reg, v: i64 },
    /// `i[dst] = integers[arr](i[idx])` (1-based, range-checked by name).
    ILoad { dst: Reg, arr: u32, idx: Reg },
    /// `i[dst] = i[a] op i[b]`.
    IBin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `integers[arr](i[idx]) = i[src]`; one unit of work.
    IStore { arr: u32, idx: Reg, src: Reg },
    /// Inner `FORALL` header: `i[var] = i[lo]`; a zero-trip loop skips `len + 1` ops.
    Loop {
        var: Reg,
        lo: Reg,
        hi: Reg,
        len: u32,
    },
    /// Inner `FORALL` back edge: while `i[var] < i[hi]`, increment and jump back.
    End { var: Reg, hi: Reg, len: u32 },
    /// Subscript slot header.  Executor: load the slot's next localized index and skip
    /// the `skip` ops computing it.  Inspector: fall through into them.
    Sub { slot: u32, skip: u32 },
    /// Inspector only: `i[src]` is the slot's global (1-based) subscript from here on.
    SubEnd { slot: u32, src: Reg },
    /// `f[dst] = i[src] as f64`: a loop variable or integer element used as a value.
    FInt { dst: Reg, src: Reg },
    /// `f[dst] = reals[arr][slot's local index]`.
    FLoad { dst: Reg, arr: u32, slot: u32 },
    /// `f[dst] = f[a] op f[b]`.
    FBin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    // The three statement ops.  Executor: do the statement, one unit of work.
    // Inspector: reference the subscript slots listed in `Code::refs[stmt]`.
    /// `reals[arr][slot's local index] += f[src]`.
    Reduce {
        arr: u32,
        slot: u32,
        src: Reg,
        stmt: u32,
    },
    /// `reals[arr].owned[slot's local index] = f[src]` (owner-computes: checked when the
    /// slot is localized).
    Assign {
        arr: u32,
        slot: u32,
        src: Reg,
        stmt: u32,
    },
    /// Append `f[src]` to the bucket the slot names.
    Append { slot: u32, src: Reg, stmt: u32 },
    // Executor form only ([`crate::interp`] derives it from the lowered code).
    /// A `Sub`, the subscript code it skips and its `SubEnd`: load the slot's next
    /// localized index.
    Next { slot: u32 },
    /// `Next`, fused with the hoisted `FLoad` of the same slot that follows it.
    NextLoad { slot: u32, dst: Reg, arr: u32 },
    /// An innermost `Loop … End` run lane-wise: sweep number `sweep` of the form.
    Sweep { sweep: u32 },
}

/// The code of one `FORALL` body (or of a pair of scalar integer expressions).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Code {
    /// The instruction stream.
    pub ops: Vec<Op>,
    /// Integer registers used; `0` and `1` hold `MYRANK` and `NPROCS`.
    pub iregs: u32,
    /// Real registers used.
    pub fregs: u32,
    /// Real literals: `(register, value)`, loaded once when a pass starts.
    pub consts: Vec<(Reg, f64)>,
    /// Per statement: the subscript slots it references, one entry per occurrence in
    /// source order (target first, then the value's array reads left to right) — the
    /// order the index hash numbers ghost slots in.
    pub refs: Vec<Vec<u32>>,
    /// Register of the outermost loop variable, set by the executor per iteration.
    pub var: Reg,
    /// Per subscript slot: the distributed array it indexes (the first, when aligned
    /// arrays share the subscript) and that array's declared extent — what the
    /// inspector range-checks the subscript against, by name.
    pub subs: Vec<(u32, usize)>,
    /// 1-based source line of the statement the code was built from.
    pub line: usize,
}

/// Straight-line integer code for two scalar expressions (loop bounds, the two sides
/// of an `IF` condition) and the registers their values land in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntCode {
    /// The code; run once, in executor mode.
    pub code: Code,
    /// Result registers.
    pub out: [Reg; 2],
}

/// The arrays a loop's code uses, by name in first-use order: what lowering classifies
/// the loop by and the optimizer's dependence tests work on.
#[derive(Debug, Default)]
pub(crate) struct Usage {
    /// Real arrays read (gathered before the loop runs).
    pub gathered: Vec<String>,
    /// `REDUCE(SUM)` targets.
    pub sum_targets: Vec<String>,
    /// `REDUCE(APPEND)` targets.
    pub append_targets: Vec<String>,
    /// Real arrays assigned directly.
    pub assigned: Vec<String>,
    /// Integer arrays read — in subscripts, bounds or values.
    pub indirection: Vec<String>,
    /// Integer arrays assigned.
    pub modified: Vec<String>,
}

pub(crate) fn push_unique(v: &mut Vec<String>, name: &str) {
    if !v.iter().any(|x| x == name) {
        v.push(name.to_string());
    }
}

/// A subscript slot whose variables are still in scope.
struct LiveSub {
    /// Decomposition slot of the arrays it indexes (`usize::MAX` for a bucket subscript).
    key: usize,
    index: Expr,
    slot: u32,
    /// Depth of the innermost loop variable the subscript mentions.
    depth: usize,
    /// Hoisted reads through this subscript: `(array, register holding the element)`.
    loads: Vec<(u32, Reg)>,
}

struct Compiler<'a> {
    decls: &'a Decls,
    code: Code,
    usage: Usage,
    /// Real arrays some statement of the loop assigns: their reads stay where they are.
    assigned: Vec<String>,
    /// Variables in scope, outermost first: a loop variable's position + 1 is its depth.
    scope: Vec<(String, Reg)>,
    live: Vec<LiveSub>,
    /// Per loop depth: subscript code waiting to be placed at the top of that body.
    prologue: Vec<Vec<Op>>,
}

impl<'a> Compiler<'a> {
    fn new(decls: &'a Decls, line: usize) -> Self {
        let code = Code {
            iregs: 2,
            line,
            ..Code::default()
        };
        Self {
            decls,
            code,
            usage: Usage::default(),
            assigned: Vec::new(),
            scope: Vec::new(),
            live: Vec::new(),
            prologue: Vec::new(),
        }
    }

    fn ireg(&mut self) -> Reg {
        self.code.iregs += 1;
        self.code.iregs - 1
    }

    fn err(&self, what: String) -> String {
        format!("line {}: {what}", self.code.line)
    }

    /// Slot of an integer array read or written by the loop.
    fn int_array(&self, name: &str) -> Result<u32, String> {
        if self.decls.real_arrays.contains_key(name) {
            let what = "cannot appear in a subscript, loop bound or integer value";
            return Err(self.err(format!("distributed array {name} {what}")));
        }
        slot_of(&self.decls.names.integers, name)
            .map(|s| s as u32)
            .ok_or_else(|| self.err(format!("undeclared integer array {name}")))
    }

    fn emit_i(&mut self, ops: &mut Vec<Op>, op: impl FnOnce(Reg) -> Op) -> Reg {
        let dst = self.ireg();
        ops.push(op(dst));
        dst
    }

    /// Compile an integer-valued expression; returns the register holding it.
    fn int(&mut self, e: &Expr, ops: &mut Vec<Op>) -> Result<Reg, String> {
        Ok(match e {
            Expr::Var(v) => match self.scope.iter().rev().find(|(name, _)| name == v) {
                Some(&(_, reg)) => reg,
                None => return Err(self.err(format!("unknown loop variable or scalar {v}"))),
            },
            Expr::Int(n) => self.emit_i(ops, |dst| Op::IConst { dst, v: *n }),
            Expr::Real(x) => self.emit_i(ops, |dst| Op::IConst { dst, v: *x as i64 }),
            Expr::Element(ArrayRef { array, index }) => {
                let arr = self.int_array(array)?;
                push_unique(&mut self.usage.indirection, array);
                let idx = self.int(index, ops)?;
                self.emit_i(ops, |dst| Op::ILoad { dst, arr, idx })
            }
            Expr::Binary(op, a, b) => {
                let (op, a, b) = (*op, self.int(a, ops)?, self.int(b, ops)?);
                self.emit_i(ops, |dst| Op::IBin { op, dst, a, b })
            }
        })
    }

    /// Compile a real-valued expression; returns the register holding it.
    fn real(&mut self, e: &Expr, ops: &mut Vec<Op>) -> Result<Reg, String> {
        self.code.fregs += 1;
        let dst = self.code.fregs - 1;
        match e {
            Expr::Int(n) => self.code.consts.push((dst, *n as f64)),
            Expr::Real(x) => self.code.consts.push((dst, *x)),
            Expr::Element(r) if self.decls.real_arrays.contains_key(&r.array) => {
                push_unique(&mut self.usage.gathered, &r.array);
                let (arr, slot) = self.sub(r, false)?;
                if self.assigned.contains(&r.array) {
                    ops.push(Op::FLoad { dst, arr, slot });
                    return Ok(dst);
                }
                // Read-only in this loop: load once per evaluation of the subscript.
                let live = self.live.iter_mut().find(|l| l.slot == slot);
                let live = live.expect("sub() keeps the slot live");
                if let Some(&(_, loaded)) = live.loads.iter().find(|(a, _)| *a == arr) {
                    return Ok(loaded);
                }
                live.loads.push((arr, dst));
                self.prologue[live.depth].push(Op::FLoad { dst, arr, slot });
            }
            Expr::Var(_) | Expr::Element(_) => {
                let src = self.int(e, ops)?;
                ops.push(Op::FInt { dst, src });
            }
            Expr::Binary(op, a, b) => {
                let (op, a, b) = (*op, self.real(a, ops)?, self.real(b, ops)?);
                ops.push(Op::FBin { op, dst, a, b });
            }
        }
        Ok(dst)
    }

    /// Depth of the innermost loop variable `e` mentions (at least 1, the outer loop).
    fn depth(&self, e: &Expr) -> usize {
        match e {
            Expr::Int(_) | Expr::Real(_) => 1,
            Expr::Var(v) => self.scope.iter().rposition(|(n, _)| n == v).unwrap_or(0) + 1,
            Expr::Element(r) => self.depth(&r.index),
            Expr::Binary(_, a, b) => self.depth(a).max(self.depth(b)),
        }
    }

    /// The `(array slot, subscript slot)` of one occurrence of a distributed-array
    /// reference in the statement being compiled, creating the subscript slot — and
    /// queueing its code for the loop body at its depth — the first time this
    /// subscript is seen while its variables are live.  Slots are
    /// shared only between arrays of one decomposition; an append target (a *bucket*
    /// subscript, localized to an owner rather than an offset) never shares.
    fn sub(&mut self, r: &ArrayRef, bucket: bool) -> Result<(u32, u32), String> {
        let never = || {
            format!(
                "array {} is used like a distributed array but was never ALIGNed",
                r.array
            )
        };
        let arr =
            slot_of(&self.decls.names.reals, &r.array).ok_or_else(|| self.err(never()))? as u32;
        let key = if bucket {
            usize::MAX
        } else {
            let decomp = &self.decls.real_arrays[&r.array].1;
            slot_of(&self.decls.names.decomps, decomp).expect("ALIGN checked the decomposition")
        };
        let refs = self
            .code
            .refs
            .last_mut()
            .expect("occurrences belong to a statement");
        if let Some(live) = self
            .live
            .iter()
            .find(|l| l.key == key && l.index == *r.index)
        {
            refs.push(live.slot);
            return Ok((arr, live.slot));
        }
        let slot = self.code.subs.len() as u32;
        refs.push(slot);
        self.code
            .subs
            .push((arr, self.decls.real_arrays[&r.array].0));
        let depth = self.depth(&r.index);
        let mut ops = Vec::new();
        let src = self.int(&r.index, &mut ops)?;
        let skip = ops.len() as u32 + 1;
        ops.insert(0, Op::Sub { slot, skip });
        ops.push(Op::SubEnd { slot, src });
        if self.prologue.len() <= depth {
            self.prologue.resize(depth + 1, Vec::new());
        }
        self.prologue[depth].extend(ops);
        let index = (*r.index).clone();
        self.live.push(LiveSub {
            key,
            index,
            slot,
            depth,
            loads: Vec::new(),
        });
        Ok((arr, slot))
    }

    /// Compile two scalar expressions into straight-line code of their own.
    fn ints(mut self, exprs: [&Expr; 2]) -> Result<(IntCode, Usage), String> {
        let mut ops = Vec::new();
        let out = [self.int(exprs[0], &mut ops)?, self.int(exprs[1], &mut ops)?];
        self.code.ops = ops;
        let code = self.code;
        Ok((IntCode { code, out }, self.usage))
    }

    /// Compile the body of the loop at `depth`, its subscript prologue first.
    fn body(&mut self, stmts: &[Stmt], depth: usize) -> Result<Vec<Op>, String> {
        let mut ops = Vec::new();
        for stmt in stmts {
            match stmt {
                Stmt::Forall {
                    var, lo, hi, body, ..
                } => {
                    if self.scope.iter().any(|(n, _)| n == var) {
                        return Err(self.err(format!(
                            "FORALL variable {var} shadows an enclosing loop variable"
                        )));
                    }
                    let (lo, hi) = (self.int(lo, &mut ops)?, self.int(hi, &mut ops)?);
                    let reg = self.ireg();
                    self.scope.push((var.clone(), reg));
                    let inner = self.body(body, depth + 1)?;
                    self.scope.pop();
                    let len = inner.len() as u32;
                    ops.push(Op::Loop {
                        var: reg,
                        lo,
                        hi,
                        len,
                    });
                    ops.extend(inner);
                    ops.push(Op::End { var: reg, hi, len });
                }
                Stmt::Assign { target, .. } if !matches!(*target.index, Expr::Var(_)) => {
                    return Err(self.err(format!(
                        "assignment to {}(non-loop-variable subscript) is not supported; \
                         use REDUCE for indirect writes to distributed arrays",
                        target.array
                    )));
                }
                Stmt::Assign { target, value }
                    if self.decls.integer_arrays.contains_key(&target.array) =>
                {
                    // An integer update's value is an index-class expression: integer
                    // arrays, loop variables and constants, never distributed data.
                    let src = self.int(value, &mut ops)?;
                    let idx = self.int(&target.index, &mut ops)?;
                    let arr = self.int_array(&target.array)?;
                    push_unique(&mut self.usage.modified, &target.array);
                    ops.push(Op::IStore { arr, idx, src });
                }
                Stmt::Reduce { target, value, .. } | Stmt::Assign { target, value } => {
                    let append = matches!(stmt, Stmt::Reduce { op, .. } if *op == ReduceOp::Append);
                    let id = self.code.refs.len() as u32;
                    self.code.refs.push(Vec::new());
                    let (arr, slot) = self.sub(target, append)?;
                    let src = self.real(value, &mut ops)?;
                    let written = match stmt {
                        Stmt::Assign { .. } => &mut self.usage.assigned,
                        _ if append => &mut self.usage.append_targets,
                        _ => &mut self.usage.sum_targets,
                    };
                    push_unique(written, &target.array);
                    ops.push(match stmt {
                        Stmt::Assign { .. } => Op::Assign {
                            arr,
                            slot,
                            src,
                            stmt: id,
                        },
                        _ if append => Op::Append {
                            slot,
                            src,
                            stmt: id,
                        },
                        _ => Op::Reduce {
                            arr,
                            slot,
                            src,
                            stmt: id,
                        },
                    });
                }
                other => return Err(self.err(format!("{other:?} is not allowed in a FORALL"))),
            }
        }
        // Subscripts of this depth die with the loop: a sibling loop reusing the
        // variable name binds a different register.
        self.live.retain(|l| l.depth < depth);
        let prologue = self.prologue.get_mut(depth).map(std::mem::take);
        let mut out = prologue.unwrap_or_default();
        out.extend(ops);
        Ok(out)
    }
}

/// The arrays the statements of a loop body assign directly.
fn assigned_arrays(body: &[Stmt], out: &mut Vec<String>) {
    for stmt in body {
        match stmt {
            Stmt::Assign { target, .. } => push_unique(out, &target.array),
            Stmt::Forall { body, .. } => assigned_arrays(body, out),
            _ => {}
        }
    }
}

/// Compile two scalar integer expressions at `line`; `rank_vars` admits `MYRANK` and
/// `NPROCS` (registers 0 and 1), as `IF` conditions do.
pub(crate) fn compile_ints(
    decls: &Decls,
    exprs: [&Expr; 2],
    line: usize,
    rank_vars: bool,
) -> Result<IntCode, String> {
    let mut c = Compiler::new(decls, line);
    if rank_vars {
        c.scope = vec![("MYRANK".to_string(), 0), ("NPROCS".to_string(), 1)];
    }
    Ok(c.ints(exprs)?.0)
}

/// Compile a top-level `FORALL`: its body's code, its bounds, and what it uses (the
/// bounds' integer arrays first: they decide the iteration set).
pub(crate) fn compile_loop(decls: &Decls, forall: &Stmt) -> Result<(Code, IntCode, Usage), String> {
    let Stmt::Forall {
        var,
        lo,
        hi,
        body,
        line,
    } = forall
    else {
        unreachable!("compile_loop called on a non-FORALL statement")
    };
    let (bounds, usage) = Compiler::new(decls, *line).ints([lo, hi])?;
    let mut c = Compiler::new(decls, *line);
    c.usage = usage;
    assigned_arrays(body, &mut c.assigned);
    c.code.var = c.ireg();
    c.scope.push((var.clone(), c.code.var));
    c.code.ops = c.body(body, 1)?;
    Ok((c.code, bounds, c.usage))
}
