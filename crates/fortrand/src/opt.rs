//! The compiler loop: static dataflow analyses and transformations over the lowered
//! [`ExecStep`] program, between lowering ([`crate::lower`]) and execution
//! ([`crate::interp`]).
//!
//! Three analyses run, in order; each produces both a program transformation and a
//! lint-style diagnostic ([`OptDiag`]) explaining why it fired or what blocked it:
//!
//! 1. **Fusion** ([`OptRule::Fuse`]) — adjacent exchange-bearing sum-reduction loops
//!    over the same decomposition and iteration space, with no flow dependence or
//!    ghost-region conflict between them, are rewritten into one [`ScheduleGroup`]:
//!    a single merged schedule moves all member arrays with one `gather_multi` /
//!    `scatter_add_multi` pair instead of one exchange per loop per array.  A loop
//!    that cannot join its neighbours still becomes a singleton group (multi-lane if
//!    it moves several arrays), so the next analysis applies uniformly.
//! 2. **Schedule reuse** ([`OptRule::Hoist`]) — a modification-dataflow pass over
//!    each `DO` time loop's body: if no iteration may write an indirection array a
//!    group's schedule depends on (and nothing redistributes), the group's
//!    [`ExecStep::BuildSchedule`] is *hoisted* out of the loop and the inspector runs
//!    once instead of once per step.  Otherwise the build stays put, stamp-guarded:
//!    at run time only members whose dependence sets actually changed are re-hashed,
//!    and the resulting schedules are served through `chaos::cache::ScheduleCache`.
//! 3. **Overlap** ([`OptRule::Overlap`]) — a read/write dependence check that slides
//!    independent work between a fused gather's split-phase start and finish: a later
//!    loop's gather is started before an earlier loop computes
//!    ([`ExecStep::GatherStart`]), and independent integer updates migrate into the
//!    window between a fused loop's own start and finish.  The rewrite is then
//!    *proved* safe by re-running the collective-matching analysis
//!    ([`crate::analysis`]) on the transformed tree — every `Start` must meet its
//!    `Finish` on every path, including through [`ExecStep::If`] branches and around
//!    time-loop back edges; if the proof fails, every overlap rewrite is reverted.
//!
//! The optimized program is run by the same executor; its fingerprints are
//! byte-identical to the naive schedule (fused exchanges are element-identical to the
//! unfused sequence, and reordered work was proved independent).

use crate::analysis;
use crate::ast::{Expr, Stmt};
use crate::lower::{ExecStep, LoopKind, LoopPlan, LoweredProgram, ScheduleGroup};

/// Most member loops one schedule group may hold (each member occupies one stamp bit
/// of the merged index table; the runtime supports 64, we stop well before).
const MAX_FUSED_MEMBERS: usize = 8;

/// Which analysis a diagnostic came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptRule {
    /// Schedule-reuse analysis (inspector hoisting out of time loops).
    Hoist,
    /// Exchange fusion (merged schedules, multi-array gathers/scatters).
    Fuse,
    /// Split-phase overlap (communication/computation pipelining).
    Overlap,
}

impl OptRule {
    /// Stable lower-case name, used by `fortrand_check --expect-opt/--expect-blocked`.
    pub fn name(self) -> &'static str {
        match self {
            OptRule::Hoist => "hoist",
            OptRule::Fuse => "fuse",
            OptRule::Overlap => "overlap",
        }
    }
}

/// One lint-style diagnostic: an optimization that fired (`applied`), or the reason
/// the analysis declined it.
#[derive(Debug, Clone)]
pub struct OptDiag {
    /// The analysis that produced this diagnostic.
    pub rule: OptRule,
    /// Whether the transformation was applied (`true`) or blocked (`false`).
    pub applied: bool,
    /// 1-based source line the diagnostic anchors to.
    pub line: usize,
    /// Why the optimization fired, or what blocked it.
    pub message: String,
}

/// Everything the optimizer did — and declined to do — to one program.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// All diagnostics, in the order the analyses emitted them.
    pub diags: Vec<OptDiag>,
}

impl OptReport {
    fn push(&mut self, rule: OptRule, applied: bool, line: usize, message: String) {
        self.diags.push(OptDiag {
            rule,
            applied,
            line,
            message,
        });
    }

    /// Diagnostics of transformations that fired.
    pub fn applied(&self) -> impl Iterator<Item = &OptDiag> {
        self.diags.iter().filter(|d| d.applied)
    }

    /// Diagnostics of transformations the analyses declined.
    pub fn blocked(&self) -> impl Iterator<Item = &OptDiag> {
        self.diags.iter().filter(|d| !d.applied)
    }

    /// Whether any diagnostic of the rule fired (`applied = true`) and mentions
    /// `needle` (empty `needle` matches any message).
    pub fn has_applied(&self, rule: &str, needle: &str) -> bool {
        self.applied()
            .any(|d| d.rule.name() == rule && d.message.contains(needle))
    }

    /// Whether any diagnostic of the rule was blocked and mentions `needle`.
    pub fn has_blocked(&self, rule: &str, needle: &str) -> bool {
        self.blocked()
            .any(|d| d.rule.name() == rule && d.message.contains(needle))
    }

    /// Render the report as the `fortrand_check --report` listing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            let status = if d.applied { "applied" } else { "blocked" };
            out.push_str(&format!(
                "{status} {:<7} line {:>3}: {}\n",
                d.rule.name(),
                d.line,
                d.message
            ));
        }
        out
    }
}

/// Run all three analyses over a lowered program, returning the transformed program
/// and the diagnostic report.  The input is untouched; executing either program
/// produces byte-identical array contents.
pub fn optimize(program: &LoweredProgram) -> (LoweredProgram, OptReport) {
    let mut report = OptReport::default();
    let mut out = program.clone();
    let mut steps = std::mem::take(&mut out.steps);
    let mut groups = Vec::new();

    // Fusion + hoisting, innermost loops first so hoisted builds bubble outward.
    optimize_body(&mut steps, &out.loops, &mut groups, &mut report);

    // Overlap, then prove the split-phase rewrites balanced with the
    // collective-matching analysis; revert all of them if the proof fails.
    let pre_overlap = steps.clone();
    let diag_mark = report.diags.len();
    overlap_pass(&mut steps, &out.loops, &groups, &mut report, false);
    out.steps = steps;
    out.groups = groups;
    let unbalanced: Vec<String> = analysis::analyze(&analysis::op_tree(&out))
        .into_iter()
        .filter(|f| f.message.contains("split-phase"))
        .map(|f| f.message)
        .collect();
    if !unbalanced.is_empty() {
        out.steps = pre_overlap;
        for d in &mut report.diags[diag_mark..] {
            if d.applied && d.rule == OptRule::Overlap {
                d.applied = false;
                d.message = format!(
                    "reverted — the collective-matching self-check found the \
                     split-phase rewrite unbalanced ({}): {}",
                    unbalanced[0], d.message
                );
            }
        }
    }
    (out, report)
}

/// Fuse and hoist within one step sequence: recurse into `IF` branches and `DO`
/// bodies first, hoist invariant schedule builds out of each `DO`, then fuse
/// adjacent loops at this level.
fn optimize_body(
    steps: &mut Vec<ExecStep>,
    loops: &[LoopPlan],
    groups: &mut Vec<ScheduleGroup>,
    report: &mut OptReport,
) {
    let mut out: Vec<ExecStep> = Vec::with_capacity(steps.len());
    for mut step in steps.drain(..) {
        match &mut step {
            ExecStep::If {
                then_steps,
                else_steps,
                ..
            } => {
                optimize_body(then_steps, loops, groups, report);
                optimize_body(else_steps, loops, groups, report);
                out.push(step);
            }
            ExecStep::TimeLoop { body, line, .. } => {
                optimize_body(body, loops, groups, report);
                let hoisted = hoist_from_body(body, *line, loops, groups, report);
                out.extend(hoisted);
                out.push(step);
            }
            _ => out.push(step),
        }
    }
    fusion_pass(&mut out, loops, groups, report);
    *steps = out;
}

// ------------------------------------------------------------------ fusion analysis --

/// Whether a loop is an exchange-bearing sum-reduction (the only kind a schedule
/// group can hold).
fn fusable(plan: &LoopPlan) -> bool {
    plan.kind == LoopKind::SumReduction
        && (!plan.gathered_arrays.is_empty() || !plan.sum_targets.is_empty())
}

/// The loop bounds of a FORALL plan (for the identical-iteration-space test).
fn loop_bounds(plan: &LoopPlan) -> (&Expr, &Expr) {
    match &plan.forall {
        Stmt::Forall { lo, hi, .. } => (lo, hi),
        _ => unreachable!("sum-reduction plans hold FORALL statements"),
    }
}

/// Why `next` cannot join a group currently holding `members` — `None` if it can.
fn fuse_conflict(members: &[usize], next: usize, loops: &[LoopPlan]) -> Option<String> {
    let first = &loops[members[0]];
    let next_plan = &loops[next];
    if next_plan.decomp != first.decomp {
        return Some(format!(
            "loop at line {} iterates over decomposition {} but the group uses {}",
            next_plan.line(),
            next_plan.decomp,
            first.decomp
        ));
    }
    let (flo, fhi) = loop_bounds(first);
    let (nlo, nhi) = loop_bounds(next_plan);
    if flo != nlo || fhi != nhi {
        return Some(format!(
            "loop at line {} has a different iteration space than the loop at line {}",
            next_plan.line(),
            first.line()
        ));
    }
    for &m in members {
        let mp = &loops[m];
        // Flow dependence: the candidate gathers values an earlier member produces;
        // a fused gather would run before that member and read stale copies.
        if let Some(arr) = next_plan
            .gathered_arrays
            .iter()
            .find(|a| mp.sum_targets.contains(a) || mp.assigned_arrays.contains(a))
        {
            return Some(format!(
                "loop at line {} reads {arr} which the loop at line {} writes \
                 (flow dependence through the exchange)",
                next_plan.line(),
                mp.line()
            ));
        }
        // Ghost-region conflict: one member gathers an array another reduces into —
        // the same ghost slots cannot hold gathered copies and partial sums at once.
        if let Some(arr) = next_plan
            .sum_targets
            .iter()
            .find(|a| mp.gathered_arrays.contains(a))
        {
            return Some(format!(
                "{arr} is gathered by the loop at line {} and reduced by the loop at \
                 line {} (ghost-region conflict)",
                mp.line(),
                next_plan.line()
            ));
        }
    }
    None
}

/// Replace maximal runs of fusable adjacent `Loop` steps with
/// `BuildSchedule` + `FusedLoop` pairs over freshly minted schedule groups.
fn fusion_pass(
    steps: &mut Vec<ExecStep>,
    loops: &[LoopPlan],
    groups: &mut Vec<ScheduleGroup>,
    report: &mut OptReport,
) {
    let mut out: Vec<ExecStep> = Vec::with_capacity(steps.len());
    let mut i = 0;
    while i < steps.len() {
        let lid = match &steps[i] {
            ExecStep::Loop(lid) if fusable(&loops[*lid]) => *lid,
            other => {
                out.push(other.clone());
                i += 1;
                continue;
            }
        };
        let mut members = vec![lid];
        let mut j = i + 1;
        while j < steps.len() && members.len() < MAX_FUSED_MEMBERS {
            let ExecStep::Loop(next) = &steps[j] else {
                break;
            };
            if !fusable(&loops[*next]) {
                break;
            }
            match fuse_conflict(&members, *next, loops) {
                None => {
                    members.push(*next);
                    j += 1;
                }
                Some(reason) => {
                    report.push(OptRule::Fuse, false, loops[*next].line(), reason);
                    break;
                }
            }
        }
        let gid = groups.len();
        let group = ScheduleGroup::new(gid, &members, loops);
        if members.len() > 1 {
            let lines: Vec<usize> = members.iter().map(|&m| loops[m].line()).collect();
            report.push(
                OptRule::Fuse,
                true,
                group.line,
                format!(
                    "fused {} loops (lines {lines:?}) into one schedule: gathers {:?} \
                     and scatter-adds {:?} each move in a single exchange",
                    members.len(),
                    group.gathered,
                    group.targets
                ),
            );
        } else if group.gathered.len() > 1 || group.targets.len() > 1 {
            report.push(
                OptRule::Fuse,
                true,
                group.line,
                format!(
                    "fused the loop's {} gathers and {} scatter-adds into one \
                     multi-array exchange per direction",
                    group.gathered.len(),
                    group.targets.len()
                ),
            );
        }
        groups.push(group);
        out.push(ExecStep::BuildSchedule { group: gid });
        out.push(ExecStep::FusedLoop {
            group: gid,
            overlapped: Vec::new(),
            early_gather: false,
        });
        i = j;
    }
    *steps = out;
}

// ---------------------------------------------------------- schedule-reuse analysis --

/// May-write sets of one time-loop iteration: integer arrays some path may modify,
/// and whether any path redistributes a decomposition.
#[derive(Default)]
struct BodyWrites {
    integers: Vec<String>,
    redistributed: Vec<String>,
}

fn collect_writes(steps: &[ExecStep], loops: &[LoopPlan], writes: &mut BodyWrites) {
    for step in steps {
        match step {
            ExecStep::Distribute { decomp, .. } => {
                if !writes.redistributed.iter().any(|d| d == decomp) {
                    writes.redistributed.push(decomp.clone());
                }
            }
            ExecStep::Loop(lid) => {
                if let LoopKind::IntegerUpdate { modified } = &loops[*lid].kind {
                    for a in modified {
                        if !writes.integers.iter().any(|x| x == a) {
                            writes.integers.push(a.clone());
                        }
                    }
                }
            }
            ExecStep::If {
                then_steps,
                else_steps,
                ..
            } => {
                collect_writes(then_steps, loops, writes);
                collect_writes(else_steps, loops, writes);
            }
            ExecStep::TimeLoop { body, .. } => collect_writes(body, loops, writes),
            ExecStep::FusedLoop { overlapped, .. } => collect_writes(overlapped, loops, writes),
            ExecStep::BuildSchedule { .. } | ExecStep::GatherStart { .. } => {}
        }
    }
}

/// Modification dataflow over one `DO` body: every top-level `BuildSchedule` whose
/// dependence sets no iteration may write — and whose world no iteration may
/// redistribute — is removed from the body and returned for insertion before the
/// loop.  The rest stay put, stamp-guarded, with a diagnostic naming the blocker.
fn hoist_from_body(
    body: &mut Vec<ExecStep>,
    loop_line: usize,
    loops: &[LoopPlan],
    groups: &[ScheduleGroup],
    report: &mut OptReport,
) -> Vec<ExecStep> {
    let mut writes = BodyWrites::default();
    collect_writes(body, loops, &mut writes);
    let mut hoisted = Vec::new();
    let mut kept = Vec::with_capacity(body.len());
    for step in body.drain(..) {
        let ExecStep::BuildSchedule { group } = &step else {
            kept.push(step);
            continue;
        };
        let g = &groups[*group];
        let deps = g.all_deps();
        let dirty: Vec<&String> = deps
            .iter()
            .filter(|d| writes.integers.iter().any(|w| w == *d))
            .collect();
        if !writes.redistributed.is_empty() {
            report.push(
                OptRule::Hoist,
                false,
                g.line,
                format!(
                    "the time loop at line {loop_line} may redistribute {:?}, which \
                     invalidates every schedule; the build for the loop at line {} \
                     stays inside, stamp-guarded",
                    writes.redistributed, g.line
                ),
            );
            kept.push(step);
        } else if !dirty.is_empty() {
            report.push(
                OptRule::Hoist,
                false,
                g.line,
                format!(
                    "indirection array(s) {dirty:?} may be written inside the time \
                     loop at line {loop_line}; the build for the loop at line {} stays \
                     inside and rebuilds stamp-guarded through the schedule cache",
                    g.line
                ),
            );
            kept.push(step);
        } else {
            report.push(
                OptRule::Hoist,
                true,
                g.line,
                format!(
                    "schedule build for the loop at line {} hoisted out of the time \
                     loop at line {loop_line}: its dependences {deps:?} are \
                     loop-invariant",
                    g.line
                ),
            );
            hoisted.push(step);
        }
    }
    *body = kept;
    hoisted
}

// ----------------------------------------------------------------- overlap analysis --

/// Slide independent work into split-phase exchange windows, recursing into `IF`
/// branches and `DO` bodies.  Two rewrites:
///
/// * **prefetch** — for two adjacent plain fused loops with no dependence from the
///   first to the second's gather, start the second gather before the first loop:
///   `[Fused(a), Fused(b)]` → `[GatherStart(b), Fused(a), Fused(b, early)]`;
/// * **slide-in** — an integer-update loop directly after a fused loop, touching
///   none of the group's dependences, moves between the fused gather's start and
///   finish.
fn overlap_pass(
    steps: &mut Vec<ExecStep>,
    loops: &[LoopPlan],
    groups: &[ScheduleGroup],
    report: &mut OptReport,
    in_time_loop: bool,
) {
    for step in steps.iter_mut() {
        match step {
            ExecStep::TimeLoop { body, .. } => overlap_pass(body, loops, groups, report, true),
            ExecStep::If {
                then_steps,
                else_steps,
                ..
            } => {
                overlap_pass(then_steps, loops, groups, report, in_time_loop);
                overlap_pass(else_steps, loops, groups, report, in_time_loop);
            }
            _ => {}
        }
    }

    // Prefetch: scan adjacent fused-loop pairs.
    let mut i = 0;
    while i + 1 < steps.len() {
        let rewrite = match (&steps[i], &steps[i + 1]) {
            (
                ExecStep::FusedLoop {
                    group: g1,
                    overlapped: o1,
                    early_gather: false,
                },
                ExecStep::FusedLoop {
                    group: g2,
                    overlapped: o2,
                    early_gather: false,
                },
            ) if o1.is_empty() && o2.is_empty() => {
                let ga = &groups[*g1];
                let gb = &groups[*g2];
                if gb.gathered.is_empty() {
                    None
                } else if let Some(arr) = gb
                    .gathered
                    .iter()
                    .find(|a| ga.targets.contains(a) || ga.assigned.contains(a))
                {
                    report.push(
                        OptRule::Overlap,
                        false,
                        gb.line,
                        format!(
                            "the loop at line {} gathers {arr}, which the loop at \
                             line {} writes; its gather cannot start early",
                            gb.line, ga.line
                        ),
                    );
                    None
                } else {
                    report.push(
                        OptRule::Overlap,
                        true,
                        gb.line,
                        format!(
                            "gather for the loop at line {} starts split-phase before \
                             the loop at line {}: the exchange flies while that loop \
                             computes",
                            gb.line, ga.line
                        ),
                    );
                    Some(*g2)
                }
            }
            // A guarded (un-hoisted) schedule build between two fused loops keeps
            // the second gather from starting early.
            (ExecStep::FusedLoop { .. }, ExecStep::BuildSchedule { group })
                if in_time_loop && matches!(steps.get(i + 2), Some(ExecStep::FusedLoop { .. })) =>
            {
                let g = &groups[*group];
                report.push(
                    OptRule::Overlap,
                    false,
                    g.line,
                    format!(
                        "the schedule build for the loop at line {} was not hoisted \
                         (its dependences change between iterations), so its gather \
                         cannot start before the preceding loop",
                        g.line
                    ),
                );
                None
            }
            _ => None,
        };
        if let Some(g2) = rewrite {
            steps[i + 1] = ExecStep::FusedLoop {
                group: g2,
                overlapped: Vec::new(),
                early_gather: true,
            };
            steps.insert(i, ExecStep::GatherStart { group: g2 });
            i += 3;
        } else {
            i += 1;
        }
    }

    // Slide-in: integer updates directly after a fused loop move into its window.
    let mut i = 0;
    while i < steps.len() {
        let ExecStep::FusedLoop { group, .. } = &steps[i] else {
            i += 1;
            continue;
        };
        let g = groups[*group].clone();
        if g.gathered.is_empty() {
            i += 1;
            continue;
        }
        while let Some(ExecStep::Loop(lid)) = steps.get(i + 1) {
            let plan = &loops[*lid];
            let LoopKind::IntegerUpdate { modified } = &plan.kind else {
                break;
            };
            let deps = g.all_deps();
            if let Some(arr) = modified.iter().find(|a| deps.iter().any(|d| d == *a)) {
                report.push(
                    OptRule::Overlap,
                    false,
                    plan.line(),
                    format!(
                        "the integer update at line {} writes {arr}, which the loop \
                         at line {} depends on; it cannot overlap that loop's exchange",
                        plan.line(),
                        g.line
                    ),
                );
                break;
            }
            report.push(
                OptRule::Overlap,
                true,
                plan.line(),
                format!(
                    "integer update at line {} slides between the gather start and \
                     finish of the loop at line {} (independent of its dependences \
                     {deps:?})",
                    plan.line(),
                    g.line
                ),
            );
            let moved = steps.remove(i + 1);
            let ExecStep::FusedLoop { overlapped, .. } = &mut steps[i] else {
                unreachable!("checked above");
            };
            overlapped.push(moved);
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn opt(src: &str) -> (LoweredProgram, OptReport) {
        compile(src).unwrap()
    }

    /// Two adjacent reduction loops over the same space fuse into one group; the
    /// build hoists out of the time loop; the second gather starts early.
    const TWO_LOOP_STEP: &str = "REAL x(32), y(32), f(32), g(32)\n\
         INTEGER ia(32), ib(32)\n\
         C$ DECOMPOSITION reg(32)\n\
         C$ DISTRIBUTE reg(BLOCK)\n\
         C$ ALIGN x, y, f, g WITH reg\n\
         DO istep = 1, 10\n\
         FORALL i = 1, 32\n\
         REDUCE(SUM, f(ia(i)), x(ib(i)))\n\
         END FORALL\n\
         FORALL i = 1, 32\n\
         REDUCE(SUM, g(ia(i)), y(ib(i)))\n\
         END FORALL\n\
         END DO\n";

    #[test]
    fn adjacent_independent_loops_fuse_and_hoist() {
        let (optimized, report) = opt(TWO_LOOP_STEP);
        assert_eq!(optimized.groups.len(), 1, "{report:?}");
        assert_eq!(optimized.groups[0].loop_ids, vec![0, 1]);
        assert!(
            report.has_applied("fuse", "fused 2 loops"),
            "{}",
            report.render()
        );
        assert!(
            report.has_applied("hoist", "hoisted out"),
            "{}",
            report.render()
        );
        // Steps: DISTRIBUTE, hoisted BuildSchedule, TimeLoop(FusedLoop).
        assert!(matches!(
            optimized.steps[1],
            ExecStep::BuildSchedule { group: 0 }
        ));
        let ExecStep::TimeLoop { body, .. } = &optimized.steps[2] else {
            panic!("expected TimeLoop, got {:?}", optimized.steps[2]);
        };
        assert!(
            matches!(
                body[..],
                [ExecStep::FusedLoop {
                    group: 0,
                    early_gather: false,
                    ..
                }]
            ),
            "{body:?}"
        );
    }

    #[test]
    fn flow_dependent_loops_do_not_fuse() {
        // The second loop gathers F, which the first produces.
        let src = "REAL x(32), f(32), g(32)\n\
             INTEGER ia(32)\n\
             C$ DECOMPOSITION reg(32)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x, f, g WITH reg\n\
             FORALL i = 1, 32\n\
             REDUCE(SUM, f(ia(i)), x(i))\n\
             END FORALL\n\
             FORALL i = 1, 32\n\
             REDUCE(SUM, g(ia(i)), f(i))\n\
             END FORALL\n";
        let (optimized, report) = opt(src);
        assert_eq!(optimized.groups.len(), 2);
        assert!(
            report.has_blocked("fuse", "flow dependence"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn mid_loop_indirection_write_blocks_hoisting() {
        let src = "REAL x(32), f(32)\n\
             INTEGER ia(32)\n\
             C$ DECOMPOSITION reg(32)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x, f WITH reg\n\
             DO istep = 1, 5\n\
             FORALL i = 1, 32\n\
             REDUCE(SUM, f(ia(i)), x(i))\n\
             END FORALL\n\
             FORALL i = 1, 32\n\
             ia(i) = ia(i) + 1\n\
             END FORALL\n\
             END DO\n";
        let (optimized, report) = opt(src);
        assert!(report.has_blocked("hoist", "IA"), "{}", report.render());
        // The build stays inside the time loop.
        let ExecStep::TimeLoop { body, .. } = &optimized.steps[1] else {
            panic!("expected TimeLoop, got {:?}", optimized.steps[1]);
        };
        assert!(
            body.iter()
                .any(|s| matches!(s, ExecStep::BuildSchedule { .. })),
            "{body:?}"
        );
        // And the integer update must NOT slide into the gather window (it writes IA).
        assert!(report.has_blocked("overlap", "IA"), "{}", report.render());
    }

    #[test]
    fn independent_integer_update_slides_into_the_gather_window() {
        let src = "REAL x(32), f(32)\n\
             INTEGER ia(32), ic(32)\n\
             C$ DECOMPOSITION reg(32)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x, f WITH reg\n\
             FORALL i = 1, 32\n\
             REDUCE(SUM, f(ia(i)), x(i))\n\
             END FORALL\n\
             FORALL i = 1, 32\n\
             ic(i) = ic(i) + 1\n\
             END FORALL\n";
        let (optimized, report) = opt(src);
        assert!(
            report.has_applied("overlap", "slides"),
            "{}",
            report.render()
        );
        let fused = optimized
            .steps
            .iter()
            .find_map(|s| match s {
                ExecStep::FusedLoop { overlapped, .. } => Some(overlapped),
                _ => None,
            })
            .expect("fused loop exists");
        assert!(
            matches!(fused[..], [ExecStep::Loop(_)]),
            "integer update should have moved into the window: {fused:?}"
        );
    }

    #[test]
    fn adjacent_hoisted_loops_get_split_phase_prefetch() {
        let (optimized, report) = opt("REAL x(32), y(32), f(32)\n\
             INTEGER ia(32), ib(32)\n\
             C$ DECOMPOSITION reg(32)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x, y, f WITH reg\n\
             DO istep = 1, 10\n\
             FORALL i = 1, 32\n\
             REDUCE(SUM, f(ia(i)), x(ib(i)))\n\
             END FORALL\n\
             FORALL i = 1, 32\n\
             REDUCE(SUM, x(ia(i)), y(ib(i)))\n\
             END FORALL\n\
             END DO\n");
        // The loops cannot fuse — the second reduces into X, which the first gathers
        // (ghost-region conflict) — but both builds hoist, and the second loop's
        // gather of Y is independent of the first loop's writes (F), so it prefetches.
        assert!(
            report.has_blocked("fuse", "ghost-region conflict"),
            "{}",
            report.render()
        );
        assert!(
            report.has_applied("overlap", "split-phase"),
            "{}",
            report.render()
        );
        let kind = |s: &ExecStep| match s {
            ExecStep::Distribute { .. } => "dist",
            ExecStep::BuildSchedule { .. } => "build",
            ExecStep::GatherStart { .. } => "start",
            ExecStep::FusedLoop {
                early_gather: true, ..
            } => "fused-early",
            ExecStep::FusedLoop { .. } => "fused",
            _ => "other",
        };
        let kinds: Vec<&'static str> = optimized.steps.iter().map(kind).collect();
        assert_eq!(
            kinds,
            vec!["dist", "build", "build", "other"],
            "{:?}",
            optimized.steps
        );
        let ExecStep::TimeLoop { body, .. } = &optimized.steps[3] else {
            panic!("expected TimeLoop, got {:?}", optimized.steps[3]);
        };
        let body_kinds: Vec<&'static str> = body.iter().map(kind).collect();
        assert_eq!(
            body_kinds,
            vec!["start", "fused", "fused-early"],
            "{body:?}"
        );
    }

    #[test]
    fn optimizer_keeps_divergence_findings_and_adds_no_imbalance() {
        // A rank-divergent branch around a collective must still be flagged on the
        // optimized program (regression for the PR 9 divergence checker).
        let src = "REAL x(16)\n\
             INTEGER ia(16)\n\
             C$ DECOMPOSITION reg(16)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x WITH reg\n\
             IF (MYRANK .EQ. 0) THEN\n\
             FORALL i = 1, 16\n\
             REDUCE(SUM, x(ia(i)), 1.0)\n\
             END FORALL\n\
             END IF\n";
        let (optimized, _report) = opt(src);
        let findings = analysis::analyze(&analysis::op_tree(&optimized));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("rank-dependent IF"));
        // And the clean two-loop program stays clean after all three passes.
        let (optimized, _report) = opt(TWO_LOOP_STEP);
        assert!(analysis::analyze(&analysis::op_tree(&optimized)).is_empty());
    }
}
