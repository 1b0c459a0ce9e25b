//! SPMD collective-matching analysis.
//!
//! Every step a lowered Fortran-D program executes — redistribution, inspector/executor
//! loops — is *collective*: all ranks must reach it, in the same order, with the same
//! shape.  A collective under rank-dependent control flow breaks that contract, and the
//! failure is rarely local: the program deadlocks (one rank waits in a gather the others
//! never join) or silently mismatches payloads several steps later.  The mpsim
//! collective ledger catches this class at *runtime*; this module is the *static* half —
//! it flags the divergence from the lowered IR alone, before anything runs.
//!
//! The analysis works on a tree of [`OpNode`]s:
//!
//! * [`op_tree`] builds the tree from a [`LoweredProgram`], giving every step a
//!   *footprint* — a canonical string two steps share iff they issue a compatible
//!   collective call sequence (same kind, decomposition and array shape);
//! * [`analyze`] walks any tree and reports [`Finding`]s:
//!   1. a rank-dependent branch whose two paths have different collective footprints —
//!      different ranks would issue different collective sequences;
//!   2. split-phase imbalance — a [`OpNode::Start`] not matched by a [`OpNode::Finish`]
//!      on every path (or a finish with no start).  The Fortran-D front end never emits
//!      split-phase nodes itself; runtimes that lower to split-phase exchange handles
//!      (mpsim's `start_exchange`/`finish`) can hand-build trees to check their
//!      schedules with the same walker.
//!
//! `fortrand_check` (`src/bin/fortrand_check.rs`) wraps [`check_source`] as a CLI so CI
//! can gate example programs clean and seeded-divergent fixtures flagged.

use crate::lower::{ExecStep, LoopKind, LoweredProgram};

/// One node of the collective-operation tree the analysis walks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpNode {
    /// A collective operation every rank must join.
    Collective {
        /// Operation kind (`"distribute"`, `"forall.sum"`, …).
        kind: String,
        /// Canonical shape: decomposition, arrays moved — two collectives match iff
        /// their kind and detail agree.
        detail: String,
    },
    /// Start of a split-phase operation with the given handle id.
    Start(u32),
    /// Finish of the split-phase operation with the given handle id.
    Finish(u32),
    /// A two-way branch.
    Branch {
        /// Whether the condition can differ across ranks (mentions `MYRANK`).
        rank_dependent: bool,
        /// Operations of the THEN path.
        then_ops: Vec<OpNode>,
        /// Operations of the ELSE path.
        else_ops: Vec<OpNode>,
    },
    /// A sequential loop whose body repeats some rank-invariant number of times (a `DO`
    /// time loop).  Split-phase handles opened in the body must be finished in the same
    /// iteration — otherwise the second iteration's start would nest under the first's
    /// unfinished handle.
    Loop(Vec<OpNode>),
}

/// One reported problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Human-readable description naming the operation and why it is unsafe.
    pub message: String,
}

/// Build the collective-operation tree of a lowered program.
pub fn op_tree(program: &LoweredProgram) -> Vec<OpNode> {
    steps_to_ops(program, &program.steps)
}

fn steps_to_ops(program: &LoweredProgram, steps: &[ExecStep]) -> Vec<OpNode> {
    let mut ops = Vec::new();
    for step in steps {
        match step {
            ExecStep::Distribute { decomp, spec } => ops.push(OpNode::Collective {
                kind: "distribute".to_string(),
                detail: format!("{decomp}:{spec:?}"),
            }),
            ExecStep::Loop(loop_id) => {
                let plan = program.loop_plan(*loop_id);
                let (kind, moved) = match &plan.kind {
                    LoopKind::SumReduction => (
                        "forall.sum",
                        format!(
                            "gather={:?},scatter_add={:?}",
                            plan.gathered_arrays, plan.sum_targets
                        ),
                    ),
                    LoopKind::AppendReduction { target } => {
                        ("forall.append", format!("scatter_append={target}"))
                    }
                    // Replicated integer updates move no data, but every rank must run
                    // them identically or the replicated indirection state diverges —
                    // model them as a collective so rank-dependent guards are flagged.
                    LoopKind::IntegerUpdate { modified } => {
                        ("forall.intupdate", format!("modified={modified:?}"))
                    }
                };
                ops.push(OpNode::Collective {
                    kind: kind.to_string(),
                    detail: format!("{}:{moved}", plan.decomp),
                });
            }
            ExecStep::If {
                rank_dependent,
                then_steps,
                else_steps,
                ..
            } => ops.push(OpNode::Branch {
                rank_dependent: *rank_dependent,
                then_ops: steps_to_ops(program, then_steps),
                else_ops: steps_to_ops(program, else_steps),
            }),
            ExecStep::TimeLoop { body, .. } => {
                ops.push(OpNode::Loop(steps_to_ops(program, body)));
            }
            ExecStep::BuildSchedule { group } => {
                let g = &program.groups[*group];
                // Identify the collective by its structure (decomposition, member
                // count, dependence set), never by group or loop ids — symmetric IF
                // branches get distinct ids for identical collective footprints.
                ops.push(OpNode::Collective {
                    kind: "schedule.build".to_string(),
                    detail: format!(
                        "{}:members={},deps={:?}",
                        g.decomp,
                        g.loop_ids.len(),
                        g.all_deps()
                    ),
                });
            }
            ExecStep::GatherStart { group } => ops.push(OpNode::Start(*group as u32)),
            ExecStep::FusedLoop {
                group,
                overlapped,
                early_gather,
            } => {
                let g = &program.groups[*group];
                let gather_detail = format!("{}:gather={:?}", g.decomp, g.gathered);
                if *early_gather {
                    // The gather was started by a preceding GatherStart node.
                    ops.push(OpNode::Finish(*group as u32));
                } else if !overlapped.is_empty() {
                    ops.push(OpNode::Start(*group as u32));
                    ops.extend(steps_to_ops(program, overlapped));
                    ops.push(OpNode::Finish(*group as u32));
                } else if !g.gathered.is_empty() {
                    ops.push(OpNode::Collective {
                        kind: "fused.gather".to_string(),
                        detail: gather_detail,
                    });
                }
                ops.push(OpNode::Collective {
                    kind: "fused.loop".to_string(),
                    detail: format!(
                        "{}:members={},scatter_add={:?}",
                        g.decomp,
                        g.loop_ids.len(),
                        g.targets
                    ),
                });
            }
        }
    }
    ops
}

/// Analyze an operation tree; an empty result means the program's collective structure
/// is rank-invariant and split-phase balanced.
pub fn analyze(ops: &[OpNode]) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_branches(ops, &mut findings);
    let mut open: Vec<u32> = Vec::new();
    check_handles(ops, &mut open, &mut findings);
    for h in open {
        findings.push(Finding {
            message: format!("split-phase handle #{h} is started but never finished"),
        });
    }
    findings
}

/// Compile Fortran-D source and analyze it in one call (what `fortrand_check` runs).
pub fn check_source(source: &str) -> Result<Vec<Finding>, String> {
    let (program, _) = crate::compile(source)?;
    Ok(analyze(&op_tree(&program)))
}

// ------------------------------------------------------- rank-dependent branch check --

/// Canonical footprint of a subtree: equal strings ⇔ the subtrees issue matching
/// collective sequences on every rank that executes them.
fn footprint(ops: &[OpNode]) -> String {
    let mut parts = Vec::new();
    for op in ops {
        match op {
            OpNode::Collective { kind, detail } => parts.push(format!("{kind}({detail})")),
            OpNode::Start(h) => parts.push(format!("start#{h}")),
            OpNode::Finish(h) => parts.push(format!("finish#{h}")),
            OpNode::Branch {
                then_ops, else_ops, ..
            } => parts.push(format!(
                "if[{}|{}]",
                footprint(then_ops),
                footprint(else_ops)
            )),
            OpNode::Loop(body) => parts.push(format!("do[{}]", footprint(body))),
        }
    }
    parts.join(";")
}

/// The first collective (rendered) on which two paths differ, for the report.
fn first_difference(then_ops: &[OpNode], else_ops: &[OpNode]) -> String {
    let t: Vec<String> = then_ops
        .iter()
        .map(|o| footprint(std::slice::from_ref(o)))
        .collect();
    let e: Vec<String> = else_ops
        .iter()
        .map(|o| footprint(std::slice::from_ref(o)))
        .collect();
    let k = t.iter().zip(e.iter()).take_while(|(a, b)| a == b).count();
    let render = |v: &[String]| match v.get(k) {
        Some(op) => op.clone(),
        None => format!("<end of path after {} ops>", v.len()),
    };
    format!(
        "op #{k}: THEN path runs {}, ELSE path runs {}",
        render(&t),
        render(&e)
    )
}

fn check_branches(ops: &[OpNode], findings: &mut Vec<Finding>) {
    for op in ops {
        if let OpNode::Branch {
            rank_dependent,
            then_ops,
            else_ops,
        } = op
        {
            if *rank_dependent && footprint(then_ops) != footprint(else_ops) {
                findings.push(Finding {
                    message: format!(
                        "collective sequence diverges under a rank-dependent IF \
                         (different ranks take different branches) — {}",
                        first_difference(then_ops, else_ops)
                    ),
                });
            }
            check_branches(then_ops, findings);
            check_branches(else_ops, findings);
        } else if let OpNode::Loop(body) = op {
            check_branches(body, findings);
        }
    }
}

// ------------------------------------------------------------ split-phase balancing --

/// Walk a path, tracking open split-phase handles.  At a branch, both paths are walked
/// from the same open set; the paths must agree on the resulting set, otherwise a handle
/// is open on one path and not the other, and the walk continues with the THEN result.
fn check_handles(ops: &[OpNode], open: &mut Vec<u32>, findings: &mut Vec<Finding>) {
    for op in ops {
        match op {
            OpNode::Collective { .. } => {}
            OpNode::Start(h) => open.push(*h),
            OpNode::Finish(h) => match open.iter().rposition(|x| x == h) {
                Some(at) => {
                    open.remove(at);
                }
                None => findings.push(Finding {
                    message: format!(
                        "split-phase handle #{h} is finished but was never started on this path"
                    ),
                }),
            },
            OpNode::Branch {
                then_ops, else_ops, ..
            } => {
                let mut open_then = open.clone();
                let mut open_else = open.clone();
                check_handles(then_ops, &mut open_then, findings);
                check_handles(else_ops, &mut open_else, findings);
                let mut sorted_then = open_then.clone();
                let mut sorted_else = open_else.clone();
                sorted_then.sort_unstable();
                sorted_else.sort_unstable();
                if sorted_then != sorted_else {
                    findings.push(Finding {
                        message: format!(
                            "split-phase handles open after an IF differ by path: \
                             THEN leaves {sorted_then:?} open, ELSE leaves {sorted_else:?} open \
                             — some handle is not finished on all paths"
                        ),
                    });
                }
                *open = open_then;
            }
            OpNode::Loop(body) => {
                // The body repeats: whatever handles it opens it must also finish, or
                // the second iteration starts under the first's unfinished handle.
                let mut open_body = open.clone();
                check_handles(body, &mut open_body, findings);
                let mut sorted_before = open.clone();
                let mut sorted_after = open_body.clone();
                sorted_before.sort_unstable();
                sorted_after.sort_unstable();
                if sorted_before != sorted_after {
                    findings.push(Finding {
                        message: format!(
                            "split-phase handles opened inside a DO body must be finished \
                             in the same iteration: one pass changes the open set from \
                             {sorted_before:?} to {sorted_after:?}"
                        ),
                    });
                }
                *open = open_body;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coll(kind: &str, detail: &str) -> OpNode {
        OpNode::Collective {
            kind: kind.to_string(),
            detail: detail.to_string(),
        }
    }

    // ---------------------------------------------------------------- hand-built trees

    #[test]
    fn straight_line_collectives_are_clean() {
        let ops = vec![coll("distribute", "REG:Block"), coll("forall.sum", "REG:x")];
        assert!(analyze(&ops).is_empty());
    }

    #[test]
    fn rank_dependent_branch_with_matching_paths_is_clean() {
        // Both branches issue the same collective footprint, so every rank joins the
        // same sequence no matter which path it takes.
        let ops = vec![OpNode::Branch {
            rank_dependent: true,
            then_ops: vec![coll("forall.sum", "REG:x")],
            else_ops: vec![coll("forall.sum", "REG:x")],
        }];
        assert!(analyze(&ops).is_empty());
    }

    #[test]
    fn rank_dependent_branch_with_one_sided_collective_is_flagged() {
        let ops = vec![OpNode::Branch {
            rank_dependent: true,
            then_ops: vec![coll("forall.sum", "REG:x")],
            else_ops: vec![],
        }];
        let findings = analyze(&ops);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("rank-dependent IF"),
            "{}",
            findings[0].message
        );
        assert!(
            findings[0].message.contains("forall.sum"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn rank_independent_branch_with_different_paths_is_clean() {
        // Same condition on every rank → all ranks take the same path; differing paths
        // are fine.
        let ops = vec![OpNode::Branch {
            rank_dependent: false,
            then_ops: vec![coll("forall.sum", "REG:x")],
            else_ops: vec![coll("forall.append", "CELLS:v")],
        }];
        assert!(analyze(&ops).is_empty());
    }

    #[test]
    fn nested_rank_dependent_branch_is_found() {
        let ops = vec![OpNode::Branch {
            rank_dependent: false,
            then_ops: vec![OpNode::Branch {
                rank_dependent: true,
                then_ops: vec![coll("distribute", "REG:Map")],
                else_ops: vec![],
            }],
            else_ops: vec![],
        }];
        assert_eq!(analyze(&ops).len(), 1);
    }

    #[test]
    fn balanced_split_phase_is_clean() {
        let ops = vec![
            OpNode::Start(1),
            OpNode::Start(2),
            coll("compute", "overlap"),
            OpNode::Finish(2),
            OpNode::Finish(1),
        ];
        assert!(analyze(&ops).is_empty());
    }

    #[test]
    fn unfinished_handle_is_flagged() {
        let ops = vec![OpNode::Start(3), coll("forall.sum", "REG:x")];
        let findings = analyze(&ops);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("never finished"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn finish_without_start_is_flagged() {
        let findings = analyze(&[OpNode::Finish(9)]);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("never started"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn handle_finished_on_one_path_only_is_flagged() {
        let ops = vec![
            OpNode::Start(4),
            OpNode::Branch {
                rank_dependent: false,
                then_ops: vec![OpNode::Finish(4)],
                else_ops: vec![],
            },
        ];
        let findings = analyze(&ops);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("not finished on all paths")),
            "{findings:?}"
        );
    }

    // ------------------------------------------------------------- end-to-end source

    const CLEAN_GUARDED: &str = "REAL x(16)\n\
         INTEGER ia(16)\n\
         C$ DECOMPOSITION reg(16)\n\
         C$ DISTRIBUTE reg(BLOCK)\n\
         C$ ALIGN x WITH reg\n\
         IF (NPROCS .GT. 1) THEN\n\
         FORALL i = 1, 16\n\
         REDUCE(SUM, x(ia(i)), 1.0)\n\
         END FORALL\n\
         END IF\n";

    const ROOT_ONLY_LOOP: &str = "REAL x(16)\n\
         INTEGER ia(16)\n\
         C$ DECOMPOSITION reg(16)\n\
         C$ DISTRIBUTE reg(BLOCK)\n\
         C$ ALIGN x WITH reg\n\
         IF (MYRANK .EQ. 0) THEN\n\
         FORALL i = 1, 16\n\
         REDUCE(SUM, x(ia(i)), 1.0)\n\
         END FORALL\n\
         END IF\n";

    #[test]
    fn guarded_but_rank_independent_source_is_clean() {
        assert!(check_source(CLEAN_GUARDED).unwrap().is_empty());
    }

    #[test]
    fn root_only_collective_source_is_flagged() {
        let findings = check_source(ROOT_ONLY_LOOP).unwrap();
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("rank-dependent IF"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn rank_dependent_source_with_identical_branches_is_clean() {
        // Structurally identical loops on both paths (distinct loop ids, same
        // footprint): every rank issues the same collective calls.
        let src = "REAL x(16)\n\
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
             END IF\n";
        assert!(check_source(src).unwrap().is_empty());
    }

    #[test]
    fn rank_dependent_redistribution_is_flagged() {
        let src = "REAL x(16)\n\
             INTEGER map(16)\n\
             C$ DECOMPOSITION reg(16)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x WITH reg\n\
             IF (MYRANK .GE. 2) THEN\n\
             C$ DISTRIBUTE reg(map)\n\
             ELSE\n\
             C$ DISTRIBUTE reg(CYCLIC)\n\
             END IF\n";
        let findings = check_source(src).unwrap();
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("distribute"),
            "{}",
            findings[0].message
        );
    }
}
