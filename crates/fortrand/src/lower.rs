//! Lowering: turn the parsed program into per-loop inspector/executor plans.
//!
//! This is the compile-time half of §5.3: for every `FORALL` the compiler decides
//!
//! * whether the loop is a general irregular reduction loop (lowered to the
//!   hash/schedule/gather/execute/scatter_add sequence) or a `REDUCE(APPEND, …)` data
//!   movement (lowered to light-weight-schedule `scatter_append` calls);
//! * which arrays must be gathered before the loop body runs and which reduction targets
//!   must be scattered back afterwards;
//! * which integer (indirection) arrays the loop's communication schedule depends on, so
//!   the generated code can reuse the schedule until one of them is modified (§5.3.1).

use std::collections::HashMap;

use crate::ast::{CmpOp, DistSpec, Expr, Program, Stmt};
use crate::code::{compile_ints, compile_loop, push_unique, Code, IntCode, Names};

/// What kind of code a `FORALL` lowers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopKind {
    /// Inspector/executor irregular loop: gather, compute with local references,
    /// scatter-add the reduction targets.
    SumReduction,
    /// Unordered append: light-weight schedule + `scatter_append` into per-element
    /// buckets of the named target array.
    AppendReduction {
        /// The bucket array receiving appended values.
        target: String,
    },
    /// A FORALL whose body only assigns to replicated integer arrays (a DSMC-style
    /// indirection update such as `icell(i) = icell(i) + 1`).  Runs the full iteration
    /// range redundantly on every rank — no communication — and invalidates every
    /// schedule depending on the modified arrays.
    IntegerUpdate {
        /// Integer arrays written by the loop.
        modified: Vec<String>,
    },
}

/// The lowered form of one top-level `FORALL`.
#[derive(Debug, Clone)]
pub struct LoopPlan {
    /// Index of this loop among the program's executable steps.
    pub loop_id: usize,
    /// Loop classification.
    pub kind: LoopKind,
    /// The original loop statement (diagnostics and the optimizer's iteration-space
    /// test read it; the executor runs [`LoopPlan::code`]).
    pub forall: Stmt,
    /// The loop body as slot-indexed code: what the inspector's reference-collection
    /// pass and the executor both run.
    pub code: Code,
    /// The loop's bounds, as integer code.
    pub bounds: IntCode,
    /// Real arrays read inside the loop (must be gathered before execution).
    pub gathered_arrays: Vec<String>,
    /// Real arrays that are `REDUCE(SUM)` targets (scatter-added after execution).
    pub sum_targets: Vec<String>,
    /// Real arrays assigned directly (subscript = loop variable; always local writes).
    pub assigned_arrays: Vec<String>,
    /// Integer arrays appearing in subscripts or bounds: the loop's schedule is valid
    /// until one of these is modified or the decomposition is redistributed.
    pub indirection_arrays: Vec<String>,
    /// The decomposition the loop's iterations are aligned with (empty for
    /// [`LoopKind::IntegerUpdate`] loops, which touch no distributed data).
    pub decomp: String,
}

impl LoopPlan {
    /// 1-based source line of the loop's `FORALL` keyword.
    pub fn line(&self) -> usize {
        self.code.line
    }
}

/// A group of [`LoopKind::SumReduction`] loops sharing one communication schedule —
/// the one shape the executor runs sum loops in.  The optimizer's fusion analysis
/// produces the multi-member ones; a sum loop still standing as an [`ExecStep::Loop`]
/// runs as a singleton group the executor forms itself.  Every member hashes its
/// references into one index table under its own stamp; the group's schedule covers the
/// union and its gathers/scatters move all member arrays in one fused exchange per
/// direction.
#[derive(Debug, Clone)]
pub struct ScheduleGroup {
    /// Index of this group in [`LoweredProgram::groups`].
    pub id: usize,
    /// The shared decomposition (all members iterate over it).
    pub decomp: String,
    /// Member loops, in program order.  Each member's index in this list is also its
    /// stamp in the group's index table.
    pub loop_ids: Vec<usize>,
    /// Union of the members' gathered arrays, sorted (the fused gather's lane order).
    pub gathered: Vec<String>,
    /// Union of the members' `REDUCE(SUM)` targets, sorted (the fused scatter's lanes).
    pub targets: Vec<String>,
    /// Union of the members' directly-assigned real arrays (local writes; no lanes).
    pub assigned: Vec<String>,
    /// Per-member schedule dependence sets: `deps[m]` are the indirection arrays member
    /// `m`'s references are computed from.  A write to one of them invalidates only
    /// member `m`'s stamp (a patch), not the whole table.
    pub deps: Vec<Vec<String>>,
    /// Source line of the first member (for diagnostics).
    pub line: usize,
}

impl ScheduleGroup {
    /// Group number `id` over `members` — ids of [`LoopKind::SumReduction`] loops sharing
    /// a decomposition, in program order.
    pub fn new(id: usize, members: &[usize], loops: &[LoopPlan]) -> Self {
        let sorted_union = |arrays: fn(&LoopPlan) -> &Vec<String>| {
            let mut v: Vec<String> = Vec::new();
            for &m in members {
                for a in arrays(&loops[m]) {
                    push_unique(&mut v, a);
                }
            }
            v.sort_unstable();
            v
        };
        let first = &loops[members[0]];
        Self {
            id,
            decomp: first.decomp.clone(),
            loop_ids: members.to_vec(),
            gathered: sorted_union(|l| &l.gathered_arrays),
            targets: sorted_union(|l| &l.sum_targets),
            assigned: sorted_union(|l| &l.assigned_arrays),
            deps: members
                .iter()
                .map(|&m| loops[m].indirection_arrays.clone())
                .collect(),
            line: first.line(),
        }
    }

    /// Union of all members' dependence sets.
    pub fn all_deps(&self) -> Vec<String> {
        let mut v: Vec<String> = Vec::new();
        for a in self.deps.iter().flatten() {
            push_unique(&mut v, a);
        }
        v
    }
}

/// One executable step of the lowered program, in source order.
#[derive(Debug, Clone)]
pub enum ExecStep {
    /// Apply a `DISTRIBUTE` directive (possibly an irregular remap through a map array).
    Distribute {
        /// Decomposition being (re)distributed.
        decomp: String,
        /// New distribution.
        spec: DistSpec,
    },
    /// Execute the `FORALL` with the given [`LoopPlan::loop_id`].  A
    /// [`LoopKind::SumReduction`] loop here — any sum loop of a naive lowering, a loop
    /// with nothing to exchange in an optimized one — is always a group: the executor
    /// runs it as [`ExecStep::BuildSchedule`] + [`ExecStep::FusedLoop`] over a singleton
    /// [`ScheduleGroup`] numbered after [`LoweredProgram::groups`].
    Loop(usize),
    /// A statement-level `IF` block: execute `then_steps` when the condition holds,
    /// `else_steps` otherwise.
    If {
        /// The two sides of the branch condition, as integer code (may reference
        /// `MYRANK` / `NPROCS`).
        cond: IntCode,
        /// The comparison between them.
        op: CmpOp,
        /// Whether the condition mentions `MYRANK` — i.e. different ranks may take
        /// different branches.  Cached here so the collective-matching analysis
        /// ([`crate::analysis`]) and the executor agree on one definition.
        rank_dependent: bool,
        /// Steps of the THEN branch.
        then_steps: Vec<ExecStep>,
        /// Steps of the ELSE branch.
        else_steps: Vec<ExecStep>,
    },
    /// A sequential `DO` time loop: run `body` once per iteration, in order.  The loop
    /// variable is a pure step counter (the body cannot reference it), so the body is
    /// the same program every iteration — which is what makes hoisting sound.
    TimeLoop {
        /// Loop variable name (diagnostics only).
        var: String,
        /// Lower and upper bound (both inclusive), as integer code.
        bounds: IntCode,
        /// Steps of one iteration.
        body: Vec<ExecStep>,
        /// Source line of the `DO` keyword.
        line: usize,
    },
    /// **Optimizer-emitted.** Build (or revalidate) the communication schedule of
    /// [`LoweredProgram::groups`]`[group]`: full inspector on first touch, after a
    /// redistribution, or when every member's dependence set changed; stamp-guarded
    /// per-member patches when only some did; a cache hit when none did.  Hoisted out of
    /// time loops when the dependence sets are loop-invariant.
    BuildSchedule {
        /// Index into [`LoweredProgram::groups`].
        group: usize,
    },
    /// **Optimizer-emitted.** Execute the member loops of a schedule group as one fused
    /// unit: one `gather_multi` over all gathered lanes, the member bodies in program
    /// order, one `scatter_add_multi` over all target lanes.  Requires the group's
    /// [`ExecStep::BuildSchedule`] to have executed since the last redistribution.
    FusedLoop {
        /// Index into [`LoweredProgram::groups`].
        group: usize,
        /// Independent steps the overlap analysis slid between the gather's start and
        /// finish (integer-update loops that touch none of the group's dependences).
        overlapped: Vec<ExecStep>,
        /// When set, the gather was already started by a preceding
        /// [`ExecStep::GatherStart`] — only finish it here.
        early_gather: bool,
    },
    /// **Optimizer-emitted.** Start the fused gather of a schedule group split-phase,
    /// so the exchange is in flight while the steps between here and the matching
    /// [`ExecStep::FusedLoop`] (`early_gather = true`) compute.
    GatherStart {
        /// Index into [`LoweredProgram::groups`].
        group: usize,
    },
}

/// Everything declared so far: the name → shape maps the front end works with and the
/// slot tables ([`Names`]) the executor's `Vec`-backed state is indexed by.
#[derive(Debug, Clone, Default)]
pub struct Decls {
    /// Real (distributed) arrays: name → (size, decomposition).
    pub real_arrays: HashMap<String, (usize, String)>,
    /// Integer (replicated) arrays: name → size.
    pub integer_arrays: HashMap<String, usize>,
    /// Decompositions: name → size.
    pub decomps: HashMap<String, usize>,
    /// Slot numbering of the three maps' keys.
    pub names: Names,
}

/// Everything the runtime needs to execute the program.
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    /// The program's arrays and decompositions.
    pub decls: Decls,
    /// Lowered loops, indexed by `loop_id`.
    pub loops: Vec<LoopPlan>,
    /// Executable steps in source order.
    pub steps: Vec<ExecStep>,
    /// Schedule groups created by the optimizer ([`crate::opt`]); empty in the naive
    /// lowering.
    pub groups: Vec<ScheduleGroup>,
}

impl LoweredProgram {
    /// Find a loop plan by id.
    pub fn loop_plan(&self, loop_id: usize) -> &LoopPlan {
        &self.loops[loop_id]
    }
}

/// Lower a parsed program.  Reports unsupported constructs and unknown names as errors
/// naming the construct.
pub fn lower(program: &Program) -> Result<LoweredProgram, String> {
    let mut decls = Decls::default();
    let mut pending_reals: HashMap<String, usize> = HashMap::new();
    let mut loops = Vec::new();
    let mut steps = Vec::new();

    for stmt in &program.stmts {
        match stmt {
            Stmt::RealDecl { arrays } => {
                for (name, size) in arrays {
                    pending_reals.insert(name.clone(), *size);
                }
            }
            Stmt::IntegerDecl { arrays } => {
                for (name, size) in arrays {
                    decls.integer_arrays.insert(name.clone(), *size);
                    push_unique(&mut decls.names.integers, name);
                }
            }
            Stmt::Decomposition { name, size } => {
                decls.decomps.insert(name.clone(), *size);
                push_unique(&mut decls.names.decomps, name);
            }
            Stmt::Align { arrays, decomp } => {
                let dsize = *decls
                    .decomps
                    .get(decomp)
                    .ok_or_else(|| format!("ALIGN references unknown decomposition {decomp}"))?;
                for a in arrays {
                    let size = pending_reals
                        .get(a)
                        .copied()
                        .or_else(|| decls.real_arrays.get(a).map(|(s, _)| *s));
                    let size =
                        size.ok_or_else(|| format!("ALIGN references undeclared array {a}"))?;
                    if size != dsize {
                        return Err(format!(
                            "array {a} has {size} elements but decomposition {decomp} has {dsize}"
                        ));
                    }
                    decls.real_arrays.insert(a.clone(), (size, decomp.clone()));
                    push_unique(&mut decls.names.reals, a);
                }
            }
            Stmt::Reduce { .. } | Stmt::Assign { .. } => {
                return Err("REDUCE/assignment statements are only supported inside FORALL".into())
            }
            executable => steps.push(lower_exec(executable, &decls, &mut loops)?),
        }
    }

    // A bucket array holds per-element lists, not values: no other loop may use it flat.
    for plan in &loops {
        if let LoopKind::AppendReduction { target } = &plan.kind {
            let flat = |l: &&LoopPlan| {
                let uses = [&l.gathered_arrays, &l.sum_targets, &l.assigned_arrays];
                uses.iter().any(|arrays| arrays.contains(target))
            };
            if let Some(other) = loops.iter().find(flat) {
                return Err(format!(
                    "line {}: array {target} is a REDUCE(APPEND) target (line {}) and cannot \
                     also be read, assigned or REDUCE(SUM)-ed",
                    other.line(),
                    plan.line()
                ));
            }
        }
    }

    Ok(LoweredProgram {
        decls,
        loops,
        steps,
        groups: Vec::new(),
    })
}

/// Lower one executable statement — DISTRIBUTE, FORALL, IF or DO — to a step.
fn lower_exec(stmt: &Stmt, decls: &Decls, loops: &mut Vec<LoopPlan>) -> Result<ExecStep, String> {
    match stmt {
        Stmt::Distribute { decomp, spec, line } => lower_distribute(decomp, spec, *line, decls),
        Stmt::Forall { .. } => {
            let loop_id = loops.len();
            loops.push(lower_forall(loop_id, stmt, decls)?);
            Ok(ExecStep::Loop(loop_id))
        }
        Stmt::If { .. } => lower_if(stmt, decls, loops),
        Stmt::Do { .. } => lower_do(stmt, decls, loops),
        other => Err(format!(
            "only DISTRIBUTE, FORALL, DO and nested IF are allowed inside IF branches \
             and DO bodies, found {other:?}"
        )),
    }
}

/// Validate one `DISTRIBUTE` directive and lower it to a step.
fn lower_distribute(
    decomp: &str,
    spec: &DistSpec,
    line: usize,
    decls: &Decls,
) -> Result<ExecStep, String> {
    if !decls.decomps.contains_key(decomp) {
        return Err(format!(
            "DISTRIBUTE references unknown decomposition {decomp}"
        ));
    }
    if let DistSpec::Map(map) = spec {
        let Some(&len) = decls.integer_arrays.get(map) else {
            return Err(format!(
                "DISTRIBUTE({map}) references an undeclared map array"
            ));
        };
        let size = decls.decomps[decomp];
        if len < size {
            return Err(format!(
                "line {line}: DISTRIBUTE {decomp}({map}): map array {map} has {len} elements, \
                 fewer than the {size} of decomposition {decomp}"
            ));
        }
    }
    Ok(ExecStep::Distribute {
        decomp: decomp.to_string(),
        spec: spec.clone(),
    })
}

/// Lower an `IF` block.  Branches may hold only executable statements — DISTRIBUTE,
/// FORALL and nested IF — since declarations under a condition would leave the program's
/// shape rank-dependent.
fn lower_if(stmt: &Stmt, decls: &Decls, loops: &mut Vec<LoopPlan>) -> Result<ExecStep, String> {
    let Stmt::If {
        cond,
        then_branch,
        else_branch,
        line,
    } = stmt
    else {
        unreachable!("lower_if called on a non-IF statement")
    };
    let then_steps = lower_branch(then_branch, decls, loops)?;
    let else_steps = lower_branch(else_branch, decls, loops)?;
    Ok(ExecStep::If {
        cond: compile_ints(decls, [&cond.lhs, &cond.rhs], *line, true)?,
        op: cond.op,
        rank_dependent: cond.is_rank_dependent(),
        then_steps,
        else_steps,
    })
}

/// Lower the statements of one IF branch or DO body (executable statements only).
fn lower_branch(
    stmts: &[Stmt],
    decls: &Decls,
    loops: &mut Vec<LoopPlan>,
) -> Result<Vec<ExecStep>, String> {
    stmts.iter().map(|s| lower_exec(s, decls, loops)).collect()
}

/// Lower a `DO` time loop to an [`ExecStep::TimeLoop`].
///
/// The loop variable is a step counter, never in scope inside the body — a reference to
/// it there is an unknown-name error — so the body is the same program on every
/// iteration, which is the premise of the optimizer's hoisting analysis (and of calling
/// it a *time* loop at all).
fn lower_do(stmt: &Stmt, decls: &Decls, loops: &mut Vec<LoopPlan>) -> Result<ExecStep, String> {
    let Stmt::Do {
        var,
        lo,
        hi,
        body,
        line,
    } = stmt
    else {
        unreachable!("lower_do called on a non-DO statement")
    };
    Ok(ExecStep::TimeLoop {
        var: var.clone(),
        bounds: compile_ints(decls, [lo, hi], *line, false)?,
        body: lower_branch(body, decls, loops)?,
        line: *line,
    })
}

/// Compile one top-level FORALL, classify it and record its array usage.
fn lower_forall(loop_id: usize, forall: &Stmt, decls: &Decls) -> Result<LoopPlan, String> {
    let Stmt::Forall { lo, hi, body, .. } = forall else {
        unreachable!("lower_forall called on a non-FORALL statement")
    };
    let (code, bounds, usage) = compile_loop(decls, forall)?;
    let all_real = [
        &usage.gathered,
        &usage.sum_targets,
        &usage.append_targets,
        &usage.assigned,
    ];
    // The decomposition of each distributed array the loop touches, in first-use order.
    let touched = all_real.into_iter().flatten();
    let touched: Vec<&String> = touched.map(|a| &decls.real_arrays[a].1).collect();

    // Which decomposition do the iterations align with?  If the loop extent matches a
    // referenced decomposition's size, iterate owner-computes over it; otherwise fall back
    // to the decomposition of the first referenced distributed array.
    let by_extent = const_extent(lo, hi).and_then(|extent| {
        let fits = |name: &&String| decls.decomps[*name] == extent && touched.contains(name);
        decls.names.decomps.iter().find(fits)
    });
    let first = touched.first().copied();

    // Classification.  A body that writes only replicated integer arrays is an
    // indirection update (DSMC re-binning its cell map): no distributed data, no
    // communication, every rank runs the full range redundantly.  Exactly one APPEND →
    // append loop; any APPEND mixed with SUM → error.
    let (kind, decomp) = if !usage.modified.is_empty() && first.is_none() {
        let modified = usage.modified;
        (LoopKind::IntegerUpdate { modified }, String::new())
    } else {
        let kind = if !usage.modified.is_empty() {
            return Err(format!(
                "FORALL #{loop_id}: assignments to integer arrays cannot be mixed with \
                 distributed-array statements"
            ));
        } else if usage.append_targets.is_empty() {
            LoopKind::SumReduction
        } else if usage.sum_targets.is_empty() && matches!(body.as_slice(), [Stmt::Reduce { .. }]) {
            // One destination per iteration: the light-weight schedule pairs them up.
            let target = usage.append_targets[0].clone();
            LoopKind::AppendReduction { target }
        } else {
            return Err(format!(
                "FORALL #{loop_id}: an append loop holds exactly one REDUCE(APPEND) statement \
                 (it cannot be mixed with other reductions)"
            ));
        };
        let none = || format!("FORALL #{loop_id} references no distributed arrays");
        (kind, by_extent.or(first).ok_or_else(none)?.clone())
    };

    // An array that is both gathered and a SUM target would need a private contribution
    // buffer; the subset forbids it (the paper's templates never need it).
    if let Some(t) = usage
        .sum_targets
        .iter()
        .find(|t| usage.gathered.contains(t))
    {
        return Err(format!(
            "FORALL #{loop_id}: array {t} is both read and a REDUCE(SUM) target; \
             not supported by this prototype"
        ));
    }

    Ok(LoopPlan {
        loop_id,
        kind,
        forall: forall.clone(),
        code,
        bounds,
        gathered_arrays: usage.gathered,
        sum_targets: usage.sum_targets,
        assigned_arrays: usage.assigned,
        indirection_arrays: usage.indirection,
        decomp,
    })
}

/// The constant extent `hi - lo + 1` of a loop if both bounds are integer literals.
fn const_extent(lo: &Expr, hi: &Expr) -> Option<usize> {
    match (lo, hi) {
        (Expr::Int(a), Expr::Int(b)) if b >= a => Some((b - a + 1) as usize),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse;

    fn lower_src(src: &str) -> Result<LoweredProgram, String> {
        lower(&parse(&tokenize(src).unwrap()).unwrap())
    }

    const FIG1_STYLE: &str = "REAL x(64), y(64)\n\
         INTEGER ia(64), ib(64)\n\
         C$ DECOMPOSITION reg(64)\n\
         C$ DISTRIBUTE reg(BLOCK)\n\
         C$ ALIGN x, y WITH reg\n\
         FORALL i = 1, 64\n\
         REDUCE(SUM, x(ia(i)), y(ib(i)))\n\
         END FORALL\n";

    #[test]
    fn lowers_the_figure1_reduction_loop() {
        let lowered = lower_src(FIG1_STYLE).unwrap();
        assert_eq!(lowered.loops.len(), 1);
        let plan = &lowered.loops[0];
        assert_eq!(plan.kind, LoopKind::SumReduction);
        assert_eq!(plan.gathered_arrays, vec!["Y".to_string()]);
        assert_eq!(plan.sum_targets, vec!["X".to_string()]);
        assert_eq!(plan.indirection_arrays, vec!["IA".to_string(), "IB".into()]);
        assert_eq!(plan.decomp, "REG");
        assert_eq!(lowered.steps.len(), 2); // DISTRIBUTE + loop
    }

    #[test]
    fn lowers_append_loops_to_lightweight_movement() {
        let lowered = lower_src(
            "REAL vel(128), newvel(32)\n\
             INTEGER icell(128)\n\
             C$ DECOMPOSITION parts(128)\n\
             C$ DECOMPOSITION cells(32)\n\
             C$ DISTRIBUTE parts(BLOCK)\n\
             C$ DISTRIBUTE cells(BLOCK)\n\
             C$ ALIGN vel WITH parts\n\
             C$ ALIGN newvel WITH cells\n\
             FORALL i = 1, 128\n\
             REDUCE(APPEND, newvel(icell(i)), vel(i))\n\
             END FORALL\n",
        )
        .unwrap();
        let plan = &lowered.loops[0];
        assert_eq!(
            plan.kind,
            LoopKind::AppendReduction {
                target: "NEWVEL".into()
            }
        );
        assert_eq!(plan.gathered_arrays, vec!["VEL".to_string()]);
        assert!(plan.sum_targets.is_empty());
        assert_eq!(plan.decomp, "PARTS");
    }

    #[test]
    fn irregular_distribute_is_recorded_as_a_step() {
        let lowered = lower_src(
            "REAL x(16)\n\
             INTEGER map(16)\n\
             C$ DECOMPOSITION reg(16)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x WITH reg\n\
             C$ DISTRIBUTE reg(map)\n",
        )
        .unwrap();
        assert_eq!(lowered.steps.len(), 2);
        assert!(matches!(
            &lowered.steps[1],
            ExecStep::Distribute {
                spec: DistSpec::Map(m),
                ..
            } if m == "MAP"
        ));
    }

    #[test]
    fn rejects_unsupported_shapes() {
        // Real array in a subscript.
        let err = lower_src(
            "REAL x(8), y(8)\nC$ DECOMPOSITION reg(8)\nC$ DISTRIBUTE reg(BLOCK)\nC$ ALIGN x, y WITH reg\n\
             FORALL i = 1, 8\nREDUCE(SUM, x(y(i)), 1.0)\nEND FORALL\n",
        )
        .unwrap_err();
        assert!(err.contains("subscript"), "{err}");
        // Array that is both read and SUM target.
        let err = lower_src(
            "REAL x(8)\nINTEGER ia(8)\nC$ DECOMPOSITION reg(8)\nC$ DISTRIBUTE reg(BLOCK)\nC$ ALIGN x WITH reg\n\
             FORALL i = 1, 8\nREDUCE(SUM, x(ia(i)), x(i))\nEND FORALL\n",
        )
        .unwrap_err();
        assert!(err.contains("both read"), "{err}");
        // Align to an unknown decomposition.
        let err = lower_src("REAL x(8)\nC$ ALIGN x WITH reg\n").unwrap_err();
        assert!(err.contains("unknown decomposition"), "{err}");
        // Size mismatch.
        let err =
            lower_src("REAL x(9)\nC$ DECOMPOSITION reg(8)\nC$ ALIGN x WITH reg\n").unwrap_err();
        assert!(err.contains("elements"), "{err}");
    }

    #[test]
    fn lowers_if_blocks_to_nested_steps() {
        let lowered = lower_src(
            "REAL x(16)\n\
             INTEGER ia(16)\n\
             C$ DECOMPOSITION reg(16)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x WITH reg\n\
             IF (MYRANK .EQ. 0) THEN\n\
             FORALL i = 1, 16\n\
             REDUCE(SUM, x(ia(i)), 1.0)\n\
             END FORALL\n\
             ELSE\n\
             FORALL i = 1, 16\n\
             REDUCE(SUM, x(ia(i)), 2.0)\n\
             END FORALL\n\
             END IF\n",
        )
        .unwrap();
        assert_eq!(lowered.loops.len(), 2);
        assert_eq!(lowered.steps.len(), 2); // DISTRIBUTE + IF
        match &lowered.steps[1] {
            ExecStep::If {
                rank_dependent,
                then_steps,
                else_steps,
                ..
            } => {
                assert!(*rank_dependent);
                assert!(matches!(then_steps[..], [ExecStep::Loop(0)]));
                assert!(matches!(else_steps[..], [ExecStep::Loop(1)]));
            }
            other => panic!("expected IF step, got {other:?}"),
        }
    }

    #[test]
    fn rejects_declarations_inside_if_branches() {
        let err = lower_src(
            "IF (NPROCS .GT. 1) THEN\n\
             REAL x(8)\n\
             END IF\n",
        )
        .unwrap_err();
        assert!(err.contains("inside IF branches"), "{err}");
    }

    #[test]
    fn compile_convenience_wrapper_works() {
        let (program, _) = crate::compile(FIG1_STYLE).unwrap();
        assert_eq!(program.loops.len(), 1);
        assert!(crate::compile("FORALL i = 1, 4\n").is_err());
    }

    #[test]
    fn unknown_names_are_lowering_errors_with_their_line() {
        let decls = "REAL x(8)\nINTEGER ia(8)\nC$ DECOMPOSITION reg(8)\n\
             C$ DISTRIBUTE reg(BLOCK)\nC$ ALIGN x WITH reg\n";
        // An unknown scalar in a value, a subscript, an inner bound (lines 6–8 hold the
        // loop), a DO bound and an IF condition: all used to panic at run time.
        for (body, line, name) in [
            ("FORALL i = 1, 8\nREDUCE(SUM, x(ia(i)), scale)\nEND FORALL\n", 6, "SCALE"),
            ("FORALL i = 1, 8\nREDUCE(SUM, x(ia(k)), 1.0)\nEND FORALL\n", 6, "K"),
            ("\nFORALL i = 1, 8\nFORALL j = 1, m\nREDUCE(SUM, x(ia(j)), 1.0)\nEND FORALL\nEND FORALL\n", 7, "M"),
            ("DO istep = 1, nsteps\nEND DO\n", 6, "NSTEPS"),
            ("\n\nIF (flag .GT. 0) THEN\nEND IF\n", 8, "FLAG"),
        ] {
            let err = lower_src(&format!("{decls}{body}")).unwrap_err();
            let expected = format!("line {line}: unknown loop variable or scalar {name}");
            assert_eq!(err, expected);
        }
        // MYRANK and NPROCS are names only an IF condition knows.
        let err = lower_src(&format!(
            "{decls}FORALL i = 1, 8\nREDUCE(SUM, x(ia(i)), myrank)\nEND FORALL\n"
        ));
        assert!(err
            .unwrap_err()
            .contains("unknown loop variable or scalar MYRANK"));
        assert!(lower_src(&format!("{decls}IF (MYRANK .LT. NPROCS) THEN\nEND IF\n")).is_ok());
    }

    /// A map array shorter than its decomposition used to be a raw index-out-of-bounds
    /// panic when the directive ran.
    #[test]
    fn short_map_arrays_are_lowering_errors_with_their_line() {
        let src = "REAL x(8)\nINTEGER map(6)\nC$ DECOMPOSITION reg(8)\n\
             C$ ALIGN x WITH reg\nC$ DISTRIBUTE reg(map)\n";
        assert_eq!(
            lower_src(src).unwrap_err(),
            "line 5: DISTRIBUTE REG(MAP): map array MAP has 6 elements, fewer than the 8 \
             of decomposition REG"
        );
        assert!(lower_src(&src.replace("map(6)", "map(8)")).is_ok());
    }

    #[test]
    fn rejects_loop_shapes_the_executor_cannot_run() {
        let decls = "REAL v(8), w(4), c(8)\nINTEGER ic(8)\nC$ DECOMPOSITION p(8)\n\
             C$ DECOMPOSITION q(4)\nC$ ALIGN v, c WITH p\nC$ ALIGN w WITH q\n";
        let append = "FORALL i = 1, 8\nREDUCE(APPEND, w(ic(i)), v(i))\nEND FORALL\n";
        assert!(lower_src(&format!("{decls}{append}")).is_ok());
        // An append loop pairs one destination with each iteration.
        let err = lower_src(&format!(
            "{decls}FORALL i = 1, 8\nc(i) = 1.0\nREDUCE(APPEND, w(ic(i)), v(i))\nEND FORALL\n"
        ));
        assert!(err.unwrap_err().contains("exactly one REDUCE(APPEND)"));
        // A bucket array holds lists: no other loop may use it as a flat array.
        let err = lower_src(&format!(
            "{decls}{append}FORALL i = 1, 4\nREDUCE(SUM, w(i), 1.0)\nEND FORALL\n"
        ));
        assert!(err.unwrap_err().contains("REDUCE(APPEND) target"));
        // An inner FORALL may not rebind an enclosing loop's variable.
        let err = lower_src(&format!(
            "{decls}FORALL i = 1, 8\nFORALL i = 1, 2\nREDUCE(SUM, c(ic(i)), 1.0)\nEND FORALL\nEND FORALL\n"
        ));
        assert!(err.unwrap_err().contains("shadows"));
    }
}
