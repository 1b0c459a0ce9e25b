//! The SPMD executor for lowered Fortran-D programs.
//!
//! Running a lowered program through this executor is the stand-in for running the node
//! code a real Fortran 90D/HPF compiler would have generated: the sequence of CHAOS
//! runtime calls (translation-table construction, remapping, index hashing, schedule
//! generation, gathers, scatter-adds, light-weight appends) is the same, and the loop
//! bodies run as the slot-indexed code lowering built ([`crate::code`]) — there is no
//! name, map or expression tree left at run time.  One small register machine (`Vm`)
//! runs that code in two modes.  The **inspector** pass evaluates every subscript and
//! lists the distributed-array references in source order; the index hash localizes the
//! list, and the executor keeps one `u32` stream of local indices per subscript slot.
//! The **executor** pass runs the same code with a cursor per stream — `data[stream[k]]`
//! — so no index is translated twice.  A loop's streams are rebuilt exactly when its
//! references are re-hashed (an indirection array it depends on was modified, or a
//! `DISTRIBUTE` started a new epoch).  Tables 6 and 7 compare programs executed this way
//! against the hand-parallelised applications.

use std::collections::HashMap;

use chaos::prelude::*;
use mpsim::{ExchangeStats, Rank, TimeSnapshot};

use crate::ast::{BinOp, CmpOp, DistSpec};
use crate::code::{slot_of, Code, IntCode, Names, Op};
use crate::lower::{ExecStep, LoopKind, LoopPlan, LoweredProgram, ScheduleGroup};

/// Modeled time the executor spent in each phase (the columns of Table 6).
#[derive(Debug, Clone, Copy, Default)]
pub struct FortranDPhases {
    /// Remapping data arrays when a `DISTRIBUTE` directive is applied.
    pub remap: TimeSnapshot,
    /// Index analysis and schedule generation (the inspector).
    pub inspector: TimeSnapshot,
    /// Gather / loop execution / scatter (the executor).
    pub executor: TimeSnapshot,
}

impl FortranDPhases {
    /// Total modeled time across phases.
    pub fn total(&self) -> TimeSnapshot {
        self.remap + self.inspector + self.executor
    }
}

struct DecompState {
    ttable: TranslationTable,
    owned_globals: Vec<usize>,
}

struct RealState {
    /// Slot of the decomposition the array is aligned with.
    decomp: usize,
    data: DistArray<f64>,
    /// `Some` for a `REDUCE(APPEND)` target: per-element lists instead of flat `data`.
    buckets: Option<HashMap<usize, Vec<f64>>>,
}

/// What the inspector leaves behind for the executor: this rank's iterations of the
/// outer loop and, per subscript slot, the local index of each evaluation in order.
struct Localized {
    iterations: Vec<i64>,
    streams: Vec<Vec<u32>>,
}

/// Stream entry of a subscript that was evaluated but never referenced (it sits above
/// a zero-trip inner loop); the executor consumes it without dereferencing.
const UNREFERENCED: usize = usize::MAX;

/// Per-loop state: the plan's names resolved to slots once.
struct LoopRuntime {
    decomp: Option<usize>,
    /// Slots the loop writes: an append loop's bucket array, an integer update's
    /// modified integer arrays.
    written: Vec<usize>,
    /// A sum loop that stands as an `ExecStep::Loop`: the singleton group it runs as.
    group: Option<usize>,
}

/// Runtime state of one schedule group: a merged hash table with one stamp per member
/// loop, served through the software schedule cache so guarded rebuilds after an
/// indirection-array change can re-serve earlier schedules.
struct GroupRuntime {
    decomp: usize,
    /// Member loops, in program order; a member's index is its stamp bit.
    loop_ids: Vec<usize>,
    gathered: Vec<usize>,
    targets: Vec<usize>,
    /// Per member: the integer arrays its references are computed from.
    deps: Vec<Vec<usize>>,
    hash: Option<IndexHashTable>,
    cache: ScheduleCache,
    schedule: Option<CommSchedule>,
    /// Per member (member index == stamp bit): its streams, valid as long as its stamp
    /// is — ghost slots are never renumbered, so re-hashing one member leaves the
    /// others' streams intact.
    local: Vec<Option<Localized>>,
    /// Per-member snapshot of the modification counters of the arrays the member's
    /// subscripts depend on, from the last build.
    member_deps_seen: Vec<Vec<u64>>,
    epoch_seen: u64,
    pending_gather: Option<GatherHandle<f64>>,
    rebuilds: u64,
    patches: u64,
    reuses: u64,
}

/// The per-rank execution engine for one lowered program.
///
/// All methods that move data or build schedules are collective — every rank of the
/// machine must call them in the same order (the usual SPMD contract).
pub struct Executor<'p> {
    program: &'p LoweredProgram,
    my_rank: usize,
    nprocs: usize,
    // State is indexed by the slots of `program.decls.names`; names appear only in the
    // public API below.
    decomps: Vec<DecompState>,
    reals: Vec<RealState>,
    integers: Vec<Vec<i64>>,
    mod_counter: Vec<u64>,
    epoch: u64,
    loops: Vec<LoopRuntime>,
    /// The program's groups, then the singleton groups of its remaining sum loops.
    groups: Vec<Option<GroupRuntime>>,
    exchange: ExchangeStats,
    phases: FortranDPhases,
    /// The inspector's transients — the reference list of a pass and its local
    /// references — reused from one `localize` to the next: a group's member loops
    /// produce lists of the same size, and allocating them afresh per member left each
    /// freed copy (megabytes at CHARMM sizes) behind in the rank thread's allocator arena.
    inspected: Inspected,
}

impl<'p> Executor<'p> {
    /// Create an executor; every decomposition starts out BLOCK-distributed (as the
    /// paper's examples do before the irregular `DISTRIBUTE(map)` is applied).
    pub fn new(rank: &mut Rank, program: &'p LoweredProgram) -> Self {
        let decls = &program.decls;
        let names = &decls.names;
        let slot = |list: &[String], name: &String| -> usize {
            slot_of(list, name).expect("lowering resolved every name")
        };
        let slots = |list: &[String], of: &[String]| -> Vec<usize> {
            of.iter().map(|name| slot(list, name)).collect()
        };
        let decomps: Vec<DecompState> = names
            .decomps
            .iter()
            .map(|name| {
                let dist = BlockDist::new(decls.decomps[name], rank.nprocs());
                DecompState {
                    ttable: TranslationTable::from_regular(&dist),
                    owned_globals: dist.local_globals(rank.rank()).collect(),
                }
            })
            .collect();
        // Arrays that are append targets become bucket arrays; everything else is a flat
        // distributed array.
        let is_bucket = |name: &String| {
            let appends_to = |l: &LoopPlan| matches!(&l.kind, LoopKind::AppendReduction { target } if target == name);
            program.loops.iter().any(appends_to)
        };
        let reals = names
            .reals
            .iter()
            .map(|name| {
                let decomp = slot(&names.decomps, &decls.real_arrays[name].1);
                let buckets = is_bucket(name).then(HashMap::new);
                let owned = if buckets.is_some() {
                    0
                } else {
                    decomps[decomp].owned_globals.len()
                };
                RealState {
                    decomp,
                    data: DistArray::zeroed(owned, 0),
                    buckets,
                }
            })
            .collect();
        let group_runtime = |group: &ScheduleGroup| {
            let deps = group.deps.iter();
            Some(GroupRuntime {
                decomp: slot(&names.decomps, &group.decomp),
                loop_ids: group.loop_ids.clone(),
                gathered: slots(&names.reals, &group.gathered),
                targets: slots(&names.reals, &group.targets),
                deps: deps.map(|d| slots(&names.integers, d)).collect(),
                hash: None,
                cache: ScheduleCache::new(4),
                schedule: None,
                local: group.loop_ids.iter().map(|_| None).collect(),
                member_deps_seen: Vec::new(),
                epoch_seen: 0,
                pending_gather: None,
                rebuilds: 0,
                patches: 0,
                reuses: 0,
            })
        };
        let mut groups: Vec<_> = program.groups.iter().map(group_runtime).collect();
        let loops = program
            .loops
            .iter()
            .map(|plan| {
                let (written, group) = match &plan.kind {
                    LoopKind::SumReduction => {
                        // One hash table / one schedule per group — the merged schedule
                        // a compiler would emit — needs one decomposition.
                        let all = plan.gathered_arrays.iter().chain(&plan.sum_targets);
                        for a in all.chain(&plan.assigned_arrays) {
                            assert_eq!(
                                decls.real_arrays[a].1, plan.decomp,
                                "loop {}: array {a} is aligned with a different decomposition",
                                plan.loop_id
                            );
                        }
                        // A sum loop the optimizer put in no group is a group of one.
                        let id = plan.loop_id;
                        let grouped = program.groups.iter().any(|g| g.loop_ids.contains(&id));
                        let group = (!grouped).then(|| {
                            let single = ScheduleGroup::new(groups.len(), &[id], &program.loops);
                            groups.push(group_runtime(&single));
                            single.id
                        });
                        (Vec::new(), group)
                    }
                    LoopKind::AppendReduction { target } => {
                        (slots(&names.reals, std::slice::from_ref(target)), None)
                    }
                    LoopKind::IntegerUpdate { modified } => {
                        (slots(&names.integers, modified), None)
                    }
                };
                LoopRuntime {
                    decomp: slot_of(&names.decomps, &plan.decomp),
                    written,
                    group,
                }
            })
            .collect();
        Self {
            program,
            my_rank: rank.rank(),
            nprocs: rank.nprocs(),
            decomps,
            reals,
            integers: names
                .integers
                .iter()
                .map(|n| vec![0i64; decls.integer_arrays[n]])
                .collect(),
            mod_counter: vec![0; names.integers.len()],
            epoch: 0,
            loops,
            groups,
            exchange: ExchangeStats::default(),
            phases: FortranDPhases::default(),
            inspected: Inspected::default(),
        }
    }

    /// Slot of a real array named through the public API: a flat one, or a bucket
    /// (append-target) one.
    fn real_slot(&self, name: &str, bucket: bool) -> usize {
        slot_of(&self.program.decls.names.reals, name)
            .filter(|&s| self.reals[s].buckets.is_some() == bucket)
            .unwrap_or_else(|| match bucket {
                true => panic!("unknown bucket array {name}"),
                false => panic!("unknown or non-flat real array {name}"),
            })
    }

    fn integer_slot(&self, name: &str) -> usize {
        slot_of(&self.program.decls.names.integers, name)
            .unwrap_or_else(|| panic!("unknown integer array {name}"))
    }

    /// Phase times accumulated so far.
    pub fn phases(&self) -> FortranDPhases {
        self.phases
    }

    /// Exchange traffic (messages and bytes) this rank has issued so far across every
    /// gather, scatter-add, fused multi-array exchange and light-weight append.
    pub fn exchange_stats(&self) -> ExchangeStats {
        self.exchange
    }

    fn group(&self, group: usize) -> Option<&GroupRuntime> {
        self.groups.get(group).and_then(Option::as_ref)
    }

    /// How many times a schedule group's merged hash table was fully rebuilt,
    /// incrementally patched, and reused as-is.  Groups are numbered as in
    /// [`LoweredProgram::groups`]; the singleton groups of sum loops that stand as
    /// [`ExecStep::Loop`] steps follow, in loop order.
    pub fn group_stats(&self, group: usize) -> (u64, u64, u64) {
        self.group(group)
            .map_or((0, 0, 0), |rt| (rt.rebuilds, rt.patches, rt.reuses))
    }

    /// Software schedule-cache statistics of a schedule group.
    pub fn group_cache_stats(&self, group: usize) -> CacheStats {
        self.group(group)
            .map_or_else(CacheStats::default, |rt| rt.cache.stats())
    }

    /// `(send, recv)` message counts of a schedule group's current merged schedule
    /// (one fused gather or scatter-add moves exactly this many messages).
    pub fn group_message_counts(&self, group: usize) -> (usize, usize) {
        self.group(group)
            .and_then(|rt| rt.schedule.as_ref())
            .map_or((0, 0), |s| (s.send_message_count(), s.recv_message_count()))
    }

    /// Set a distributed real array from its global contents (each rank keeps the elements
    /// it owns).  Not collective.
    pub fn set_real_array(&mut self, name: &str, global: &[f64]) {
        let slot = self.real_slot(name, false);
        let state = &mut self.reals[slot];
        assert_eq!(
            global.len(),
            self.program.decls.real_arrays[name].0,
            "array {name} initialised with the wrong length"
        );
        let owned_globals = &self.decomps[state.decomp].owned_globals;
        let owned: Vec<f64> = owned_globals.iter().map(|&g| global[g]).collect();
        state.data = DistArray::new(owned, state.data.ghost_len());
    }

    /// Set a replicated integer array (1-based Fortran values are stored as given).
    /// Marks the array as modified so dependent schedules are regenerated.
    pub fn set_integer_array(&mut self, name: &str, values: &[i64]) {
        let slot = self.integer_slot(name);
        assert_eq!(
            values.len(),
            self.integers[slot].len(),
            "array {name} has the wrong length"
        );
        self.integers[slot].copy_from_slice(values);
        self.mod_counter[slot] += 1;
    }

    /// Record that the host modified an integer array in place (statement S of Figure 2):
    /// schedules depending on it will be regenerated at their next execution.
    pub fn mark_modified(&mut self, name: &str) {
        let slot = self.integer_slot(name);
        self.mod_counter[slot] += 1;
    }

    /// Gather a distributed real array back to its global form (collective).
    pub fn get_real_array(&mut self, rank: &mut Rank, name: &str) -> Vec<f64> {
        let state = &self.reals[self.real_slot(name, false)];
        let decomp = &self.decomps[state.decomp];
        let packed: Vec<(u64, f64)> = decomp
            .owned_globals
            .iter()
            .zip(state.data.owned())
            .map(|(&g, &v)| (g as u64, v))
            .collect();
        let gathered = rank.all_gather(&packed);
        let mut global = vec![0.0; self.program.decls.real_arrays[name].0];
        for part in gathered {
            for (g, v) in part {
                global[g as usize] = v;
            }
        }
        global
    }

    fn buckets(&self, name: &str) -> &HashMap<usize, Vec<f64>> {
        let state = &self.reals[self.real_slot(name, true)];
        state.buckets.as_ref().expect("real_slot checked")
    }

    /// Global bucket sizes of an append target (collective).
    pub fn bucket_sizes(&mut self, rank: &mut Rank, name: &str) -> Vec<usize> {
        let mut counts = vec![0.0f64; self.program.decls.real_arrays[name].0];
        for (&cell, values) in self.buckets(name) {
            counts[cell] += values.len() as f64;
        }
        rank.all_reduce_sum_vec(&counts)
            .into_iter()
            .map(|c| c as usize)
            .collect()
    }

    /// The locally held buckets of an append target, sorted by bucket index, values in
    /// append order.
    pub fn local_buckets(&self, name: &str) -> Vec<(usize, Vec<f64>)> {
        let mut out: Vec<(usize, Vec<f64>)> = self
            .buckets(name)
            .iter()
            .map(|(&c, v)| (c, v.clone()))
            .collect();
        out.sort_unstable_by_key(|(c, _)| *c);
        out
    }

    /// Empty every bucket of an append target (the host does this between time steps).
    pub fn clear_buckets(&mut self, name: &str) {
        let slot = self.real_slot(name, true);
        let buckets = self.reals[slot].buckets.as_mut();
        buckets.expect("real_slot checked").clear();
    }

    /// Run every executable step of the program in source order (collective).
    pub fn run_all(&mut self, rank: &mut Rank) {
        for step in 0..self.program.steps.len() {
            self.run_step(rank, step);
        }
    }

    /// Run one executable step (collective).
    pub fn run_step(&mut self, rank: &mut Rank, step: usize) {
        let program = self.program;
        self.exec_step(rank, &program.steps[step]);
    }

    fn exec_step(&mut self, rank: &mut Rank, step: &ExecStep) {
        match step {
            ExecStep::Distribute { decomp, spec } => self.apply_distribute(rank, decomp, spec),
            ExecStep::Loop(loop_id) => self.run_loop(rank, *loop_id),
            ExecStep::If {
                cond,
                op,
                then_steps,
                else_steps,
                ..
            } => {
                // Note: the steps inside the branches are collective, so a
                // rank-dependent condition here is exactly the bug class the
                // collective-matching analysis (`crate::analysis`) flags — the
                // executor does what the program says regardless.
                let [l, r] = self.scalar_pair(cond);
                let holds = match op {
                    CmpOp::Eq => l == r,
                    CmpOp::Ne => l != r,
                    CmpOp::Lt => l < r,
                    CmpOp::Le => l <= r,
                    CmpOp::Gt => l > r,
                    CmpOp::Ge => l >= r,
                };
                for s in if holds { then_steps } else { else_steps } {
                    self.exec_step(rank, s);
                }
            }
            ExecStep::TimeLoop { bounds, body, .. } => {
                let [lo, hi] = self.scalar_pair(bounds);
                for _ in lo..=hi {
                    for s in body {
                        self.exec_step(rank, s);
                    }
                }
            }
            ExecStep::BuildSchedule { group } => self.build_group_schedule(rank, *group),
            ExecStep::GatherStart { group } => self.start_group_gather(rank, *group),
            ExecStep::FusedLoop {
                group,
                overlapped,
                early_gather,
            } => self.run_fused_loop(rank, *group, overlapped, *early_gather),
        }
    }

    /// Apply a `DISTRIBUTE` directive: build the new translation table and remap every
    /// flat real array aligned with the decomposition (collective).
    pub fn apply_distribute(&mut self, rank: &mut Rank, decomp: &str, spec: &DistSpec) {
        let t0 = rank.modeled();
        let size = self.program.decls.decomps[decomp];
        let slot = slot_of(&self.program.decls.names.decomps, decomp).expect("decomps has it");
        let block = BlockDist::new(size, self.nprocs);
        let my_block: Vec<usize> = block.local_globals(self.my_rank).collect();
        let mut new_ttable = match spec {
            DistSpec::Block => TranslationTable::from_regular(&block),
            DistSpec::Cyclic => TranslationTable::from_regular(&CyclicDist::new(size, self.nprocs)),
            DistSpec::Map(map_name) => {
                let map = &self.integers[self.integer_slot(map_name)];
                let local_map: Vec<usize> = my_block.iter().map(|&g| map[g] as usize).collect();
                TranslationTable::replicated_from_map(rank, &local_map, &block)
                    .expect("map array assigns an element to a non-existent processor")
            }
        };
        // Remap every flat array aligned with this decomposition from its current
        // distribution to the new one, reusing one plan for all of them.  The arrays are
        // visited in name order so that every rank issues the transfers in the same
        // sequence (the remap messages of different arrays share a tag).
        let plan = build_remap(rank, &self.decomps[slot].owned_globals, &mut new_ttable);
        let names = &self.program.decls.names.reals;
        let mut aligned: Vec<usize> = (0..self.reals.len())
            .filter(|&a| self.reals[a].decomp == slot && self.reals[a].buckets.is_none())
            .collect();
        aligned.sort_unstable_by_key(|&a| &names[a]);
        for a in aligned {
            let new_owned = remap_values(rank, &plan, self.reals[a].data.owned(), 0.0);
            self.reals[a].data = DistArray::new(new_owned, 0);
        }
        let owned_globals = new_ttable.owned_globals(rank);
        self.decomps[slot] = DecompState {
            ttable: new_ttable,
            owned_globals,
        };
        self.epoch += 1;
        self.phases.remap += rank.modeled().since(&t0);
    }

    /// Execute one `FORALL` loop (collective).
    fn run_loop(&mut self, rank: &mut Rank, loop_id: usize) {
        match self.program.loop_plan(loop_id).kind {
            LoopKind::SumReduction => {
                let group = self.loops[loop_id].group;
                let group = group.expect("a grouped loop runs through its FusedLoop step");
                self.build_group_schedule(rank, group);
                self.run_fused_loop(rank, group, &[], false);
            }
            LoopKind::AppendReduction { .. } => self.run_append_loop(rank, loop_id),
            LoopKind::IntegerUpdate { .. } => self.run_integer_update(rank, loop_id),
        }
    }

    /// A register machine over the executor's arrays, ready to run `code`.
    fn vm<'a>(&'a mut self, code: &Code, streams: &'a [Vec<u32>]) -> Vm<'a> {
        let mut i = vec![0i64; code.iregs as usize];
        (i[0], i[1]) = (self.my_rank as i64, self.nprocs as i64);
        let mut f = vec![0.0; code.fregs as usize];
        for &(reg, v) in &code.consts {
            f[reg as usize] = v;
        }
        Vm {
            names: &self.program.decls.names,
            ints: &mut self.integers,
            reals: &mut self.reals,
            i,
            f,
            streams,
            cursor: vec![0; code.subs.len()],
            local: vec![0; code.subs.len()],
            global: vec![0; code.subs.len()],
            seen: Inspected::default(),
            payload: Vec::new(),
            work: 0,
        }
    }

    /// Evaluate a pair of scalar integer expressions (bounds, an `IF`'s two sides).
    fn scalar_pair(&mut self, ints: &IntCode) -> [i64; 2] {
        let mut vm = self.vm(&ints.code, &[]);
        vm.run::<false>(&ints.code);
        ints.out.map(|reg| vm.i[reg as usize])
    }

    /// The iterations this rank executes of a sum-reduction loop: owner-computes over
    /// the loop's decomposition when the loop ranges over exactly that index space (the
    /// common case in the paper's templates); otherwise a BLOCK partition of the range.
    fn sum_loop_iterations(&mut self, plan: &LoopPlan, decomp: usize) -> Vec<i64> {
        let [lo, hi] = self.scalar_pair(&plan.bounds);
        let extent = (hi - lo + 1).max(0) as usize;
        if extent == self.program.decls.decomps[&plan.decomp] {
            let owned = self.decomps[decomp].owned_globals.iter();
            owned.map(|&g| lo + g as i64).collect()
        } else {
            let block = BlockDist::new(extent, self.nprocs).local_globals(self.my_rank);
            block.map(|g| lo + g as i64).collect()
        }
    }

    /// The inspector's reference-collection pass: run the loop's code over `iterations`
    /// evaluating subscripts only, and return every distributed-array reference in
    /// source order (one per occurrence — the list the index hash has always been fed).
    /// The collection is built in `self.inspected`'s buffers; callers hand it back there
    /// when they are done with it.
    fn inspect(&mut self, loop_id: usize, iterations: &[i64]) -> Inspected {
        let code = &self.program.loop_plan(loop_id).code;
        let mut seen = std::mem::take(&mut self.inspected);
        seen.reset(code.subs.len());
        let mut vm = self.vm(code, &[]);
        vm.seen = seen;
        for &i in iterations {
            vm.i[code.var as usize] = i;
            vm.run::<true>(code);
        }
        vm.seen
    }

    /// The executor pass: run the loop's code over its localized streams; returns the
    /// work done (statements executed) and the append payload, if any.
    fn execute(&mut self, loop_id: usize, local: &Localized) -> (usize, Vec<(u64, f64)>) {
        let code = &self.program.loop_plan(loop_id).code;
        let mut vm = self.vm(code, &local.streams);
        for &i in &local.iterations {
            vm.i[code.var as usize] = i;
            vm.run::<false>(code);
        }
        let consumed = vm
            .cursor
            .iter()
            .zip(&local.streams)
            .all(|(&c, s)| c == s.len());
        assert!(
            consumed,
            "line {}: executor left subscript streams unread",
            code.line
        );
        (vm.work, vm.payload)
    }

    /// Inspect one sum-reduction loop and localize its subscripts: hash the reference
    /// list under `stamp` (collective in cost accounting only — the table is
    /// replicated) and keep, per subscript slot, the local index of each evaluation.
    /// Direct assignments are checked here, once, in every build: owner-computes must
    /// hold for each assigned element.
    fn localize(
        &mut self,
        rank: &mut Rank,
        loop_id: usize,
        decomp: usize,
        hash: &mut IndexHashTable,
        stamp: Stamp,
    ) -> Localized {
        let plan = self.program.loop_plan(loop_id);
        let iterations = self.sum_loop_iterations(plan, decomp);
        let mut seen = self.inspect(loop_id, &iterations);
        let DecompState {
            ttable,
            owned_globals,
        } = &self.decomps[decomp];
        hash.hash_in_replicated_into(rank, ttable, &seen.refs, stamp, &mut seen.local);
        let local = &seen.local;
        for &(at, arr) in &seen.assigns {
            assert!(
                (local[at] as usize) < owned_globals.len(),
                "line {}: assignment to {}({}) on rank {}, but the element is owned by rank {} \
                 (direct assignments must be to owned elements under owner-computes)",
                plan.line(),
                self.program.decls.names.reals[arr as usize],
                seen.refs[at] + 1,
                self.my_rank,
                ttable
                    .lookup_local(seen.refs[at])
                    .map_or(u32::MAX, |loc| loc.owner),
            );
        }
        // An unreferenced evaluation (`UNREFERENCED` is past the end of `local`) keeps the
        // executor's "nothing to read" marker.
        let stream = |first_ref: &Vec<usize>| {
            let entry = |&at: &usize| local.get(at).copied().unwrap_or(u32::MAX);
            first_ref.iter().map(entry).collect()
        };
        let streams = seen.first_ref.iter().map(stream).collect();
        self.inspected = seen;
        Localized {
            iterations,
            streams,
        }
    }

    // --------------------------------------------------------- integer-update loops --

    /// Execute a replicated integer-update FORALL: every rank runs the full iteration
    /// range over its replicated copy (no communication), and the modified arrays'
    /// counters are bumped so dependent schedules rebuild or patch at their next use.
    fn run_integer_update(&mut self, rank: &mut Rank, loop_id: usize) {
        let plan = self.program.loop_plan(loop_id);
        let [lo, hi] = self.scalar_pair(&plan.bounds);
        let all = Localized {
            iterations: (lo..=hi).collect(),
            streams: Vec::new(),
        };
        let (work, _) = self.execute(loop_id, &all);
        rank.charge_compute(work as f64 * 0.2);
        for &a in &self.loops[loop_id].written {
            self.mod_counter[a] += 1;
        }
    }

    // ------------------------------------------------------------------- append loops --

    fn run_append_loop(&mut self, rank: &mut Rank, loop_id: usize) {
        let plan = self.program.loop_plan(loop_id);
        let rt = &self.loops[loop_id];
        let (source, target) = (rt.decomp.expect("append loop"), rt.written[0]);
        let [lo, hi] = self.scalar_pair(&plan.bounds);
        let extent = (hi - lo + 1).max(0) as usize;
        let owned = self.decomps[source].owned_globals.iter();
        let iterations: Vec<i64> = owned
            .filter(|&&g| g < extent)
            .map(|&g| lo + g as i64)
            .collect();

        // ---- inspector: destination processors + light-weight schedule -----------------
        // Localizing an append loop needs no hash table: the bucket subscript resolves
        // to its owner (and stays global in its stream), value subscripts must be owned.
        let t0 = rank.modeled();
        let seen = self.inspect(loop_id, &iterations);
        let mut dests: Vec<ProcId> = Vec::with_capacity(iterations.len());
        let mut streams: Vec<Vec<u32>> = Vec::new();
        for (first_ref, &(array, _)) in seen.first_ref.iter().zip(&plan.code.subs) {
            let array = array as usize;
            let ttable = &self.decomps[self.reals[array].decomp].ttable;
            let mut stream = Vec::with_capacity(first_ref.len());
            for &at in first_ref {
                let global = seen.refs[at];
                let loc = ttable
                    .lookup_local(global)
                    .expect("the executor's decompositions use replicated translation tables");
                let name = &self.program.decls.names.reals[array];
                if array == target {
                    dests.push(loc.owner as usize);
                    stream.push(bucket_entry(plan.line(), name, global));
                    continue;
                }
                assert_eq!(
                    loc.owner as usize,
                    self.my_rank,
                    "line {}: append-loop values must reference locally owned elements, \
                     but {}({}) is not",
                    plan.line(),
                    name,
                    global + 1
                );
                stream.push(loc.offset);
            }
            streams.push(stream);
        }
        self.inspected = seen;
        let sched = LightweightSchedule::build(rank, &dests);
        self.phases.inspector += rank.modeled().since(&t0);

        // ---- executor: move and append ---------------------------------------------------
        let t0 = rank.modeled();
        // The payload items are `(bucket, value)` pairs.
        let stats = sched.exchange_stats::<(u64, f64)>();
        self.exchange = self.exchange.merged(&stats);
        let local = Localized {
            iterations,
            streams,
        };
        let (_, payload) = self.execute(loop_id, &local);
        let arrivals = scatter_append(rank, &sched, &payload);
        let buckets = self.reals[target].buckets.as_mut().expect("append target");
        for (bucket, value) in arrivals {
            buckets.entry(bucket as usize).or_default().push(value);
        }
        rank.charge_compute(local.iterations.len() as f64 * 0.3);
        self.phases.executor += rank.modeled().since(&t0);
    }

    // ---------------------------------------------------------------- schedule groups --

    /// `BuildSchedule` step: (re)build or incrementally patch the group's merged hash
    /// table — one stamp per member loop — then fetch the merged schedule through the
    /// software schedule cache (collective).
    fn build_group_schedule(&mut self, rank: &mut Rank, group_id: usize) {
        let t0 = rank.modeled();
        let mut rt = self.groups[group_id].take().expect("groups do not nest");
        // Current modification counters of each member's subscript dependencies; every
        // rank bumps the counters identically, so the decisions below are SPMD.
        let counters = |deps: &Vec<usize>| deps.iter().map(|&a| self.mod_counter[a]).collect();
        let deps_now: Vec<Vec<u64>> = rt.deps.iter().map(counters).collect();
        // A member is dirty when its indirection arrays changed since the last build;
        // before the first build and after a redistribution every member is.
        let stale = rt.hash.is_none() || rt.epoch_seen != self.epoch;
        let dirty = |(m, now): (usize, &Vec<u64>)| stale || rt.member_deps_seen[m] != *now;
        let dirty: Vec<bool> = deps_now.iter().enumerate().map(dirty).collect();
        // Every member dirty: nothing of the old table survives, so clear it and hash
        // from scratch — the epoch bump makes the cache rebuild the schedule.  Otherwise
        // patch only the dirty members' stamps — incremental maintenance instead of a
        // full inspector rerun.
        let fresh = dirty.iter().all(|&d| d);
        let owned_len = self.decomps[rt.decomp].owned_globals.len();
        let hash = rt
            .hash
            .get_or_insert_with(|| IndexHashTable::new(self.my_rank, owned_len));
        if fresh {
            hash.clear_all(owned_len);
            rt.rebuilds += 1;
        }
        for (m, &lid) in rt.loop_ids.iter().enumerate() {
            if !dirty[m] {
                continue;
            }
            let stamp = Stamp::new(m as u8);
            if !fresh {
                hash.clear_stamp(stamp);
                rt.patches += 1;
            }
            rt.local[m] = Some(self.localize(rank, lid, rt.decomp, hash, stamp));
        }
        if !dirty.contains(&true) {
            rt.reuses += 1;
        }
        let stamps: Vec<Stamp> = (0..rt.loop_ids.len())
            .map(|m| Stamp::new(m as u8))
            .collect();
        let (sched, _outcome) = rt.cache.schedule(rank, hash, StampQuery::any_of(&stamps));
        rt.schedule = Some(sched.clone());
        rt.member_deps_seen = deps_now;
        rt.epoch_seen = self.epoch;
        self.groups[group_id] = Some(rt);
        self.phases.inspector += rank.modeled().since(&t0);
    }

    /// `GatherStart` step: post the fused gather's sends for the group's read arrays,
    /// leaving the handle pending so independent work overlaps the exchange
    /// (collective).
    fn start_group_gather(&mut self, rank: &mut Rank, group_id: usize) {
        let t0 = rank.modeled();
        let rt = self.groups[group_id].as_mut().expect("groups do not nest");
        assert!(
            !rt.gathered.is_empty(),
            "GatherStart is only emitted for groups with gathered arrays"
        );
        assert_eq!(
            rt.epoch_seen, self.epoch,
            "stale schedule: the optimizer must not start a gather across a DISTRIBUTE"
        );
        let sched = rt.schedule.as_ref();
        let sched = sched.expect("a BuildSchedule step precedes every GatherStart");
        let arrays: Vec<&DistArray<f64>> =
            rt.gathered.iter().map(|&a| &self.reals[a].data).collect();
        rt.pending_gather = Some(gather_start(rank, sched, arrays));
        self.phases.executor += rank.modeled().since(&t0);
    }

    /// Move arrays out of the executor so a fused exchange can borrow them all at once
    /// (steps overlapped with the exchange touch only replicated integer state).
    fn take_arrays(&mut self, slots: &[usize], ghost: usize) -> Vec<DistArray<f64>> {
        let take = |&a: &usize| {
            let mut data = std::mem::replace(&mut self.reals[a].data, DistArray::zeroed(0, 0));
            data.ensure_ghost(ghost);
            data
        };
        slots.iter().map(take).collect()
    }

    fn put_arrays(&mut self, slots: &[usize], arrays: Vec<DistArray<f64>>) {
        for (&a, data) in slots.iter().zip(arrays) {
            self.reals[a].data = data;
        }
    }

    /// `FusedLoop` step — and, after its build, every sum loop that stands alone: one
    /// fused gather for all the group's read arrays, the member loop bodies in program
    /// order against the merged schedule, then one fused scatter-add for all the
    /// reduction targets (collective).
    ///
    /// `early_gather` finishes a gather posted by a preceding `GatherStart`;
    /// `overlapped` steps (proved independent by the optimizer) execute between this
    /// loop's gather start and finish.
    fn run_fused_loop(
        &mut self,
        rank: &mut Rank,
        group_id: usize,
        overlapped: &[ExecStep],
        early_gather: bool,
    ) {
        let mut rt = self.groups[group_id].take().expect("groups do not nest");
        assert_eq!(
            rt.epoch_seen, self.epoch,
            "stale schedule: the optimizer must not hoist across a DISTRIBUTE"
        );
        let sched = rt.schedule.as_ref();
        let sched = sched.expect("a BuildSchedule step precedes every FusedLoop");
        let ghost = sched.ghost_len();
        let t0 = rank.modeled();

        // ---- fused gather (plain, finishing an early start, or overlapping) ----------
        let mut stats = ExchangeStats::default();
        let mut gathered = self.take_arrays(&rt.gathered, ghost);
        let handle = if early_gather {
            let pending = rt.pending_gather.take();
            Some(pending.expect("a GatherStart step precedes an early-gather FusedLoop"))
        } else if overlapped.is_empty() || gathered.is_empty() {
            None
        } else {
            let arrays: Vec<&DistArray<f64>> = gathered.iter().collect();
            Some(gather_start(rank, sched, arrays))
        };
        for s in overlapped {
            self.exec_step(rank, s);
        }
        let arrays: Vec<&mut DistArray<f64>> = gathered.iter_mut().collect();
        if let Some(handle) = handle {
            stats = stats.merged(&gather_finish(rank, handle, sched, arrays));
        } else if !arrays.is_empty() {
            stats = stats.merged(&gather_multi(rank, sched, arrays));
        }
        self.put_arrays(&rt.gathered, gathered);
        for &a in &rt.targets {
            self.reals[a].data.ensure_ghost(ghost);
            self.reals[a].data.clear_ghost();
        }

        // ---- member bodies, in program order ------------------------------------------
        let mut work = 0usize;
        for (&lid, local) in rt.loop_ids.iter().zip(&rt.local) {
            work += self
                .execute(lid, local.as_ref().expect("localized by BuildSchedule"))
                .0;
        }
        rank.charge_compute(work as f64);

        // ---- fused scatter-add ---------------------------------------------------------
        if !rt.targets.is_empty() {
            let mut targets = self.take_arrays(&rt.targets, ghost);
            let arrays: Vec<&mut DistArray<f64>> = targets.iter_mut().collect();
            stats = stats.merged(&scatter_add_multi(rank, sched, arrays));
            for data in &mut targets {
                data.clear_ghost();
            }
            self.put_arrays(&rt.targets, targets);
        }
        self.exchange = self.exchange.merged(&stats);
        self.phases.executor += rank.modeled().since(&t0);
        self.groups[group_id] = Some(rt);
    }
}

// ------------------------------------------------------------------ the register machine --

/// What an inspector pass collects.
#[derive(Default)]
struct Inspected {
    /// Every distributed-array reference (0-based global index), one per occurrence, in
    /// source order.
    refs: Vec<usize>,
    /// Per subscript slot, per evaluation: the position in `refs` of its first
    /// reference ([`UNREFERENCED`] if it had none).
    first_ref: Vec<Vec<usize>>,
    /// Direct assignments executed: `(position in refs, assigned array)`.
    assigns: Vec<(usize, u32)>,
    /// Filled by `localize`, not by the pass: the local reference of each `refs` entry.
    local: Vec<u32>,
}

impl Inspected {
    /// Empty the collection for a pass over code with `slots` subscript slots, keeping
    /// the allocations.
    fn reset(&mut self, slots: usize) {
        self.refs.clear();
        self.assigns.clear();
        self.local.clear();
        self.first_ref.resize(slots, Vec::new());
        self.first_ref.iter_mut().for_each(Vec::clear);
    }
}

/// Runs a loop's [`Code`] against the executor's arrays.  `INSPECT = true` is the
/// inspector's reference-collection pass (subscript code runs, data is not touched);
/// `INSPECT = false` is the executor pass (subscripts come from the streams).
struct Vm<'a> {
    names: &'a Names,
    ints: &'a mut [Vec<i64>],
    reals: &'a mut [RealState],
    i: Vec<i64>,
    f: Vec<f64>,
    /// Executor: the localized streams, a cursor into each, the current local index.
    streams: &'a [Vec<u32>],
    cursor: Vec<usize>,
    local: Vec<u32>,
    /// Inspector: the current global (1-based) subscript per slot, and the collection.
    global: Vec<i64>,
    seen: Inspected,
    payload: Vec<(u64, f64)>,
    work: usize,
}

/// The 0-based index of 1-based subscript `value` into `array`; a subscript outside
/// the declared extent is a named panic, ledger style.
fn checked_index(line: usize, array: &str, value: i64, extent: usize) -> usize {
    assert!(
        value >= 1 && value as usize <= extent,
        "line {line}: subscript {value} of array {array} is outside its declared extent 1..={extent}"
    );
    (value - 1) as usize
}

/// `x / y` in a loop's integer code; a zero divisor (and `i64::MIN / -1`) is a named
/// panic, not the bare arithmetic one.
fn checked_quotient(line: usize, x: i64, y: i64) -> i64 {
    x.checked_div(y).unwrap_or_else(|| match y {
        0 => panic!("line {line}: integer division by zero ({x} / 0)"),
        _ => panic!("line {line}: integer division overflows ({x} / {y})"),
    })
}

/// A bucket's 0-based global index as an append stream's `u32` entry.
fn bucket_entry(line: usize, array: &str, global: usize) -> u32 {
    u32::try_from(global).unwrap_or_else(|_| {
        panic!(
            "line {line}: bucket {array}({}) is beyond the append stream's u32 range",
            global + 1
        )
    })
}

impl Vm<'_> {
    fn run<const INSPECT: bool>(&mut self, code: &Code) {
        let Self {
            names,
            ints,
            reals,
            streams,
            seen,
            ..
        } = self;
        let (i, f) = (&mut self.i[..], &mut self.f[..]);
        let (cursor, local, global) = (
            &mut self.cursor[..],
            &mut self.local[..],
            &mut self.global[..],
        );
        let int_index = |ints: &[Vec<i64>], arr: u32, value: i64| {
            let name = &names.integers[arr as usize];
            checked_index(code.line, name, value, ints[arr as usize].len())
        };
        // Inspector: one occurrence of subscript slot `slot` in the source.
        let reference = |seen: &mut Inspected, global: &[i64], slot: u32| {
            let (array, extent) = code.subs[slot as usize];
            let name = &names.reals[array as usize];
            let at = checked_index(code.line, name, global[slot as usize], extent);
            let first = seen.first_ref[slot as usize].last_mut();
            let first = first.expect("a subscript is evaluated before it is referenced");
            if *first == UNREFERENCED {
                *first = seen.refs.len();
            }
            seen.refs.push(at);
        };
        let mut pc = 0usize;
        let mut work = 0usize;
        while let Some(op) = code.ops.get(pc) {
            pc += 1;
            match *op {
                Op::IConst { dst, v } => i[dst as usize] = v,
                Op::ILoad { dst, arr, idx } => {
                    i[dst as usize] = ints[arr as usize][int_index(ints, arr, i[idx as usize])];
                }
                Op::IBin { op, dst, a, b } => {
                    let (x, y) = (i[a as usize], i[b as usize]);
                    i[dst as usize] = match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => checked_quotient(code.line, x, y),
                    };
                }
                Op::IStore { arr, idx, src } => {
                    let at = int_index(ints, arr, i[idx as usize]);
                    ints[arr as usize][at] = i[src as usize];
                    work += 1;
                }
                Op::Loop { var, lo, hi, len } => {
                    i[var as usize] = i[lo as usize];
                    if i[lo as usize] > i[hi as usize] {
                        pc += len as usize + 1;
                    }
                }
                Op::End { var, hi, len } => {
                    if i[var as usize] < i[hi as usize] {
                        i[var as usize] += 1;
                        pc -= len as usize + 1;
                    }
                }
                Op::Sub { slot, skip } if !INSPECT => {
                    let cursor = &mut cursor[slot as usize];
                    local[slot as usize] = streams[slot as usize][*cursor];
                    *cursor += 1;
                    pc += skip as usize;
                }
                Op::Sub { .. } => {}
                Op::SubEnd { slot, src } => {
                    global[slot as usize] = i[src as usize];
                    seen.first_ref[slot as usize].push(UNREFERENCED);
                }
                Op::Reduce { stmt, .. } | Op::Assign { stmt, .. } | Op::Append { stmt, .. }
                    if INSPECT =>
                {
                    let refs = &code.refs[stmt as usize];
                    if let Op::Assign { arr, .. } = *op {
                        seen.assigns.push((seen.refs.len(), arr));
                    }
                    for &slot in refs {
                        reference(seen, global, slot);
                    }
                }
                Op::FInt { .. } | Op::FLoad { .. } | Op::FBin { .. } if INSPECT => {}
                Op::FInt { dst, src } => f[dst as usize] = i[src as usize] as f64,
                // A hoisted load runs once per evaluation of its subscript, referenced or
                // not; an unreferenced one has nothing to read.
                Op::FLoad { slot, .. } if local[slot as usize] == u32::MAX => {}
                Op::FLoad { dst, arr, slot } => {
                    let at = LocalRef(local[slot as usize] as usize);
                    f[dst as usize] = reals[arr as usize].data[at];
                }
                Op::FBin { op, dst, a, b } => {
                    let (x, y) = (f[a as usize], f[b as usize]);
                    f[dst as usize] = match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => x / y,
                    };
                }
                Op::Reduce { arr, slot, src, .. } => {
                    let at = LocalRef(local[slot as usize] as usize);
                    reals[arr as usize].data[at] += f[src as usize];
                    work += 1;
                }
                Op::Assign { arr, slot, src, .. } => {
                    let at = local[slot as usize] as usize;
                    reals[arr as usize].data.owned_mut()[at] = f[src as usize];
                    work += 1;
                }
                Op::Append { slot, src, .. } => {
                    let bucket = u64::from(local[slot as usize]);
                    self.payload.push((bucket, f[src as usize]));
                }
            }
        }
        self.work += work;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use mpsim::{run, MachineConfig};

    /// `compile`'s program, or — with `optimize` off — the bare lowering, where every
    /// sum loop stands as an `ExecStep::Loop`.
    fn program(src: &str, optimize: bool) -> LoweredProgram {
        if optimize {
            return compile(src).unwrap().0;
        }
        let tokens = crate::lexer::tokenize(src).unwrap();
        crate::lower::lower(&crate::parser::parse(&tokens).unwrap()).unwrap()
    }

    /// The Figure 1 loop: x(ia(i)) += y(ib(i)), checked against a sequential evaluation.
    #[test]
    fn figure1_loop_matches_sequential_evaluation() {
        let n = 48;
        let src = format!(
            "REAL x({n}), y({n})\n\
             INTEGER ia({n}), ib({n})\n\
             C$ DECOMPOSITION reg({n})\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x, y WITH reg\n\
             FORALL i = 1, {n}\n\
             REDUCE(SUM, x(ia(i)), y(ib(i)))\n\
             END FORALL\n"
        );
        let ia: Vec<i64> = (0..n).map(|i| ((i * 7) % n + 1) as i64).collect();
        let ib: Vec<i64> = (0..n).map(|i| ((i * 13 + 5) % n + 1) as i64).collect();
        let x0: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y0: Vec<f64> = (0..n).map(|i| (i * i) as f64 * 0.5).collect();
        // Sequential reference.
        let mut expected = x0.clone();
        for i in 0..n {
            expected[(ia[i] - 1) as usize] += y0[(ib[i] - 1) as usize];
        }

        let out = run(MachineConfig::new(4), move |rank| {
            let (lowered, _) = compile(&src).unwrap();
            let mut exec = Executor::new(rank, &lowered);
            exec.set_integer_array("IA", &ia);
            exec.set_integer_array("IB", &ib);
            exec.set_real_array("X", &x0);
            exec.set_real_array("Y", &y0);
            exec.run_all(rank);
            exec.get_real_array(rank, "X")
        });
        for got in &out.results {
            for (a, b) in got.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-9, "mismatch: {a} vs {b}");
            }
        }
    }

    /// The Figure 10 pattern: nested FORALL over a CSR non-bonded list with four
    /// REDUCE(SUM) statements, plus an irregular redistribution through a map array.
    #[test]
    fn figure10_style_loop_with_irregular_distribution() {
        let n = 30usize;
        // CSR list: atom i interacts with (i+1) mod n and (i+5) mod n.
        let mut inblo = Vec::with_capacity(n + 1);
        let mut jnb: Vec<i64> = Vec::new();
        inblo.push(1i64);
        for i in 0..n {
            jnb.push(((i + 1) % n + 1) as i64);
            jnb.push(((i + 5) % n + 1) as i64);
            inblo.push(1 + jnb.len() as i64);
        }
        let jnb_len = jnb.len();
        let src = format!(
            "REAL x({n}), dx({n})\n\
             INTEGER map({n}), inblo({m}), jnb({k})\n\
             C$ DECOMPOSITION reg({n})\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x, dx WITH reg\n\
             C$ DISTRIBUTE reg(map)\n\
             FORALL i = 1, {n}\n\
             FORALL j = inblo(i), inblo(i+1) - 1\n\
             REDUCE(SUM, dx(jnb(j)), x(jnb(j)) - x(i))\n\
             REDUCE(SUM, dx(i), x(i) - x(jnb(j)))\n\
             END FORALL\n\
             END FORALL\n",
            n = n,
            m = n + 1,
            k = jnb_len
        );
        let map: Vec<i64> = (0..n).map(|g| ((g * 3 + 1) % 3) as i64).collect();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 10.0).collect();
        // Sequential reference.
        let mut expected = vec![0.0f64; n];
        for i in 0..n {
            for j in (inblo[i] - 1)..(inblo[i + 1] - 1) {
                let partner = (jnb[j as usize] - 1) as usize;
                expected[partner] += x0[partner] - x0[i];
                expected[i] += x0[i] - x0[partner];
            }
        }

        let inblo2 = inblo.clone();
        let jnb2 = jnb.clone();
        let out = run(MachineConfig::new(3), move |rank| {
            let (lowered, _) = compile(&src).unwrap();
            let mut exec = Executor::new(rank, &lowered);
            exec.set_integer_array("MAP", &map);
            exec.set_integer_array("INBLO", &inblo2);
            exec.set_integer_array("JNB", &jnb2);
            exec.set_real_array("X", &x0);
            exec.set_real_array("DX", &vec![0.0; n]);
            exec.run_all(rank);
            exec.get_real_array(rank, "DX")
        });
        for got in &out.results {
            for (a, b) in got.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-9, "mismatch: {a} vs {b}");
            }
        }
    }

    /// The Figure 11 pattern: REDUCE(APPEND) moves particle values to their new cells
    /// with a light-weight schedule; a second loop recomputes the per-cell counts.
    #[test]
    fn figure11_append_loop_routes_values_to_cells() {
        let nparticles = 60usize;
        let ncells = 12usize;
        let src = format!(
            "REAL vel({np}), newvel({nc})\n\
             INTEGER icell({np})\n\
             C$ DECOMPOSITION parts({np})\n\
             C$ DECOMPOSITION cells({nc})\n\
             C$ DISTRIBUTE parts(BLOCK)\n\
             C$ DISTRIBUTE cells(BLOCK)\n\
             C$ ALIGN vel WITH parts\n\
             C$ ALIGN newvel WITH cells\n\
             FORALL i = 1, {np}\n\
             REDUCE(APPEND, newvel(icell(i)), vel(i))\n\
             END FORALL\n",
            np = nparticles,
            nc = ncells
        );
        let icell: Vec<i64> = (0..nparticles)
            .map(|i| ((i * 5) % ncells + 1) as i64)
            .collect();
        let vel: Vec<f64> = (0..nparticles).map(|i| i as f64 + 0.25).collect();
        // Sequential reference: per-cell value multisets and counts.
        let mut expected: Vec<Vec<u64>> = vec![Vec::new(); ncells];
        for i in 0..nparticles {
            expected[(icell[i] - 1) as usize].push(vel[i].to_bits());
        }
        for cell in &mut expected {
            cell.sort_unstable();
        }

        let out = run(MachineConfig::new(4), move |rank| {
            let (lowered, _) = compile(&src).unwrap();
            let mut exec = Executor::new(rank, &lowered);
            exec.set_integer_array("ICELL", &icell);
            exec.set_real_array("VEL", &vel);
            exec.run_all(rank);
            let sizes = exec.bucket_sizes(rank, "NEWVEL");
            (sizes, exec.local_buckets("NEWVEL"))
        });
        // Every rank agrees on the global sizes.
        for (sizes, _) in &out.results {
            for (c, s) in sizes.iter().enumerate() {
                assert_eq!(*s, expected[c].len(), "cell {c} count mismatch");
            }
        }
        // The union of local buckets matches the expected multisets.
        let mut got: Vec<Vec<u64>> = vec![Vec::new(); ncells];
        for (_, local) in &out.results {
            for (cell, values) in local {
                got[*cell].extend(values.iter().map(|v| v.to_bits()));
            }
        }
        for cell in &mut got {
            cell.sort_unstable();
        }
        assert_eq!(got, expected);
    }

    /// Schedule reuse: re-running a loop without touching its indirection arrays must not
    /// rebuild the schedule; modifying one must.
    #[test]
    fn schedules_are_reused_until_an_indirection_array_changes() {
        let n = 40usize;
        let src = format!(
            "REAL x({n}), y({n})\n\
             INTEGER ia({n})\n\
             C$ DECOMPOSITION reg({n})\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x, y WITH reg\n\
             FORALL i = 1, {n}\n\
             REDUCE(SUM, x(ia(i)), y(ia(i)))\n\
             END FORALL\n"
        );
        let out = run(MachineConfig::new(2), move |rank| {
            let (lowered, _) = compile(&src).unwrap();
            let mut exec = Executor::new(rank, &lowered);
            let ia: Vec<i64> = (0..n).map(|i| ((i * 3) % n + 1) as i64).collect();
            exec.set_integer_array("IA", &ia);
            exec.set_real_array("X", &vec![0.0; n]);
            exec.set_real_array("Y", &vec![1.0; n]);
            // Run the loop four times: the first builds the schedule, the next two reuse
            // it, then a modification forces a rebuild.  Steps: 0 DISTRIBUTE (which
            // would start a new epoch if repeated), 1 BuildSchedule, 2 FusedLoop.
            let sweep = |exec: &mut Executor<'_>, rank: &mut Rank| {
                exec.run_step(rank, 1);
                exec.run_step(rank, 2);
            };
            exec.run_all(rank);
            sweep(&mut exec, rank);
            sweep(&mut exec, rank);
            let before = exec.group_stats(0);
            let mut ia2 = ia.clone();
            ia2[0] = ((7 % n) + 1) as i64;
            exec.set_integer_array("IA", &ia2);
            sweep(&mut exec, rank);
            let after = exec.group_stats(0);
            (before, after, exec.phases().inspector.total_us() > 0.0)
        });
        for (before, after, inspector_nonzero) in &out.results {
            // (rebuilds, patches, reuses): a group of one has nothing to patch.
            assert_eq!(*before, (1, 0, 2));
            assert_eq!(*after, (2, 0, 2));
            assert!(inspector_nonzero);
        }
    }

    /// IF blocks take the branch their condition selects; `NPROCS`/`MYRANK` resolve per
    /// rank.  (Both conditions here evaluate identically on every rank — genuinely
    /// divergent branches around collectives are the bug class `crate::analysis` and the
    /// mpsim collective ledger exist to flag.)
    #[test]
    fn if_blocks_execute_the_taken_branch() {
        let n = 16usize;
        let src = format!(
            "REAL x({n})\n\
             INTEGER ia({n})\n\
             C$ DECOMPOSITION reg({n})\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x WITH reg\n\
             IF (NPROCS .GT. 1) THEN\n\
             FORALL i = 1, {n}\n\
             REDUCE(SUM, x(ia(i)), 1.0)\n\
             END FORALL\n\
             ELSE\n\
             FORALL i = 1, {n}\n\
             REDUCE(SUM, x(ia(i)), 100.0)\n\
             END FORALL\n\
             END IF\n\
             IF (MYRANK .GE. 0) THEN\n\
             FORALL i = 1, {n}\n\
             REDUCE(SUM, x(ia(i)), 10.0)\n\
             END FORALL\n\
             END IF\n"
        );
        let out = run(MachineConfig::new(2), move |rank| {
            let (lowered, _) = compile(&src).unwrap();
            let mut exec = Executor::new(rank, &lowered);
            let ia: Vec<i64> = (1..=n as i64).collect();
            exec.set_integer_array("IA", &ia);
            exec.set_real_array("X", &vec![0.0; n]);
            exec.run_all(rank);
            exec.get_real_array(rank, "X")
        });
        // With two procs the first IF takes its THEN branch (+1.0), the second always
        // runs (+10.0); the ELSE (+100.0) must not have executed.
        for x in &out.results {
            assert!(x.iter().all(|&v| (v - 11.0).abs() < 1e-9), "{x:?}");
        }
    }

    #[test]
    fn phases_accumulate_and_redistribution_counts_as_remap() {
        let n = 24usize;
        let src = format!(
            "REAL x({n})\n\
             INTEGER map({n})\n\
             C$ DECOMPOSITION reg({n})\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x WITH reg\n\
             C$ DISTRIBUTE reg(map)\n"
        );
        let out = run(MachineConfig::new(3), move |rank| {
            let (lowered, _) = compile(&src).unwrap();
            let mut exec = Executor::new(rank, &lowered);
            exec.set_integer_array("MAP", &(0..n).map(|g| (g % 3) as i64).collect::<Vec<_>>());
            exec.set_real_array("X", &(0..n).map(|g| g as f64).collect::<Vec<_>>());
            exec.run_all(rank);
            let x = exec.get_real_array(rank, "X");
            (exec.phases().remap.total_us(), x)
        });
        for (remap_us, x) in &out.results {
            assert!(*remap_us > 0.0, "DISTRIBUTE should be billed as remap time");
            // Values survive the two redistributions.
            for (g, v) in x.iter().enumerate() {
                assert_eq!(*v, g as f64);
            }
        }
    }

    /// Reads of an array the loop also assigns stay in statement order (they are not
    /// hoisted to the top of the iteration), and loop variables, integer elements and
    /// literals all work as real values.
    #[test]
    fn assigned_arrays_are_read_in_statement_order() {
        let src = "REAL x(12), f(12), g(12)\n\
             INTEGER ia(12)\n\
             C$ DECOMPOSITION reg(12)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x, f, g WITH reg\n\
             FORALL i = 1, 12\n\
             f(i) = x(i) + 1\n\
             REDUCE(SUM, g(ia(i)), f(i) * i + ia(i))\n\
             f(i) = f(i) * 2.5\n\
             END FORALL\n";
        let ia: Vec<i64> = (0..12).map(|i| (i * 5) % 12 + 1).collect();
        let mut g = vec![0.0; 12];
        for i in 0..12 {
            g[(ia[i] - 1) as usize] += (i as f64 + 1.0) * (i + 1) as f64 + ia[i] as f64;
        }
        let f: Vec<f64> = (0..12).map(|i| (i as f64 + 1.0) * 2.5).collect();
        let out = run(MachineConfig::new(3), move |rank| {
            let (lowered, _) = compile(src).unwrap();
            let mut exec = Executor::new(rank, &lowered);
            exec.set_integer_array("IA", &ia);
            exec.set_real_array("X", &(0..12).map(f64::from).collect::<Vec<_>>());
            exec.set_real_array("F", &[0.0; 12]);
            exec.set_real_array("G", &[0.0; 12]);
            exec.run_all(rank);
            (
                exec.get_real_array(rank, "F"),
                exec.get_real_array(rank, "G"),
            )
        });
        for (got_f, got_g) in &out.results {
            assert_eq!((got_f, got_g), (&f, &g));
        }
    }

    // ------------------------------------------------ named failures (all builds) --

    /// The panic message of `f` (rank panics arrive as `rank N panicked: …`).
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("expected a panic");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => (*payload.downcast::<&str>().expect("string panic")).to_string(),
        }
    }

    /// A direct assignment whose target this rank does not own — here the BLOCK
    /// fallback iteration set (extent ≠ decomposition size) under an irregular
    /// distribution — used to write through another rank's offset in release builds.
    /// The check now lives where the subscript stream is born and runs in every build
    /// (CI's `shared-backend-release` lane runs this test with optimizations on).
    #[test]
    #[should_panic(expected = "assignment to F(1) on rank 0, but the element is owned by rank 1")]
    fn assignment_to_an_unowned_element_panics_in_every_build() {
        let src = "REAL x(16), f(16)\n\
             INTEGER map(16)\n\
             C$ DECOMPOSITION reg(16)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x, f WITH reg\n\
             C$ DISTRIBUTE reg(map)\n\
             FORALL i = 1, 15\n\
             f(i) = x(i)\n\
             END FORALL\n";
        run(MachineConfig::new(2), move |rank| {
            let (lowered, _) = compile(src).unwrap();
            let mut exec = Executor::new(rank, &lowered);
            // Odd globals on rank 0, even on rank 1: element 1 (global 0) is rank 1's.
            exec.set_integer_array("MAP", &(0..16).map(|g| (g + 1) % 2).collect::<Vec<_>>());
            exec.set_real_array("X", &[1.0; 16]);
            exec.set_real_array("F", &[0.0; 16]);
            exec.run_all(rank);
        });
    }

    /// Figure 11's `newsize(j) = 0` moves no data, so the optimizer leaves it an
    /// `ExecStep::Loop`; it still runs as a schedule group — built once, reused, no
    /// messages — in the naive lowering and the optimized program alike, and the
    /// owner-computes check of a direct assignment fires on that path too.
    #[test]
    fn non_exchange_sum_loops_run_as_groups_of_one() {
        let src = "REAL vel(60), newvel(12), newsize(12)\n\
             INTEGER icell(60)\n\
             C$ DECOMPOSITION parts(60)\n\
             C$ DECOMPOSITION cells(12)\n\
             C$ DISTRIBUTE parts(BLOCK)\n\
             C$ DISTRIBUTE cells(BLOCK)\n\
             C$ ALIGN vel WITH parts\n\
             C$ ALIGN newvel, newsize WITH cells\n\
             FORALL j = 1, 12\n\
             newsize(j) = 0\n\
             END FORALL\n\
             FORALL i = 1, 60\n\
             REDUCE(APPEND, newvel(icell(i)), vel(i))\n\
             END FORALL\n\
             FORALL i = 1, 60\n\
             REDUCE(SUM, newsize(icell(i)), 1)\n\
             END FORALL\n";
        let icell: Vec<i64> = (0..60).map(|i| (i * 5) % 12 + 1).collect();
        let mut counts = vec![0.0; 12];
        for &c in &icell {
            counts[(c - 1) as usize] += 1.0;
        }
        for optimize in [true, false] {
            let icell = icell.clone();
            let out = run(MachineConfig::new(3).with_ledger(), move |rank| {
                let program = program(src, optimize);
                assert!(matches!(program.steps[2], ExecStep::Loop(0)));
                let mut exec = Executor::new(rank, &program);
                exec.set_integer_array("ICELL", &icell);
                exec.set_real_array("VEL", &[1.0; 60]);
                exec.set_real_array("NEWSIZE", &[99.0; 12]);
                exec.run_all(rank);
                // A second sweep over the loops (not the DISTRIBUTEs): the counts are
                // zeroed again before they are recomputed.
                for step in 2..program.steps.len() {
                    exec.run_step(rank, step);
                }
                // Implicit groups are numbered after the optimizer's (here: the count
                // loop's), in loop order.
                let zero_group = if optimize { 1 } else { 0 };
                assert_eq!(exec.group_stats(zero_group), (1, 0, 1));
                assert_eq!(exec.group_message_counts(zero_group), (0, 0));
                exec.get_real_array(rank, "NEWSIZE")
            });
            for got in &out.results {
                assert_eq!(got, &counts, "optimize = {optimize}");
            }
        }

        let unowned = "REAL f(16)\n\
             INTEGER map(16)\n\
             C$ DECOMPOSITION reg(16)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN f WITH reg\n\
             C$ DISTRIBUTE reg(map)\n\
             FORALL i = 1, 15\n\
             f(i) = 0\n\
             END FORALL\n";
        for optimize in [true, false] {
            let msg = panic_message(move || {
                run(MachineConfig::new(2), move |rank| {
                    let program = program(unowned, optimize);
                    let mut exec = Executor::new(rank, &program);
                    exec.set_integer_array(
                        "MAP",
                        &(0..16).map(|g| (g + 1) % 2).collect::<Vec<_>>(),
                    );
                    exec.set_real_array("F", &[1.0; 16]);
                    exec.run_all(rank);
                });
            });
            let expected = "assignment to F(1) on rank 0, but the element is owned by rank 1";
            assert!(msg.contains(expected), "optimize = {optimize}: {msg}");
        }
    }

    /// A zero divisor in a loop's integer code (here a subscript) used to be the bare
    /// "attempt to divide by zero" of whichever rank hit it.
    #[test]
    #[should_panic(expected = "line 6: integer division by zero (16 / 0)")]
    fn integer_division_by_zero_is_a_named_panic() {
        let src = "REAL x(16)\n\
             INTEGER ia(16)\n\
             C$ DECOMPOSITION reg(16)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x WITH reg\n\
             FORALL i = 1, 16\n\
             REDUCE(SUM, x(16 / ia(i)), 1.0)\n\
             END FORALL\n";
        run(MachineConfig::new(2), move |rank| {
            let (lowered, _) = compile(src).unwrap();
            let mut exec = Executor::new(rank, &lowered);
            exec.set_integer_array("IA", &[0; 16]);
            exec.set_real_array("X", &[0.0; 16]);
            exec.run_all(rank);
        });
    }

    #[test]
    #[should_panic(expected = "integer division overflows (-9223372036854775808 / -1)")]
    fn integer_division_overflow_is_a_named_panic() {
        checked_quotient(3, i64::MIN, -1);
    }

    /// A bucket index an append stream's `u32` entries cannot hold used to be truncated
    /// by `as u32` and delivered to the wrong bucket.
    #[test]
    #[should_panic(
        expected = "line 7: bucket NEWVEL(4294967297) is beyond the append stream's u32 range"
    )]
    fn bucket_indices_beyond_u32_are_a_named_panic() {
        bucket_entry(7, "NEWVEL", u32::MAX as usize + 1);
    }

    #[test]
    fn out_of_range_subscripts_are_named_not_raw_index_panics() {
        let src = "REAL x(16)\n\
             INTEGER ia(16), ib(4)\n\
             C$ DECOMPOSITION reg(16)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x WITH reg\n\
             FORALL i = 1, 16\n\
             REDUCE(SUM, x(ia(i)), 1.0)\n\
             END FORALL\n\
             FORALL i = 1, 16\n\
             REDUCE(SUM, x(ib(ia(i))), 1.0)\n\
             END FORALL\n";
        let message = |first: i64| {
            panic_message(move || {
                run(MachineConfig::new(2), move |rank| {
                    let (lowered, _) = compile(src).unwrap();
                    let mut exec = Executor::new(rank, &lowered);
                    let mut ia = vec![1i64; 16];
                    (ia[0], ia[8]) = (first, first);
                    exec.set_integer_array("IA", &ia);
                    exec.set_integer_array("IB", &[1; 4]);
                    exec.set_real_array("X", &[0.0; 16]);
                    exec.run_all(rank);
                });
            })
        };
        // Zero, negative (used to wrap through `as usize`) and past the extent, in a
        // distributed array's subscript: array, value, extent and the loop's line.
        for bad in [0, -3, 17] {
            let msg = message(bad);
            let expected =
                format!("line 6: subscript {bad} of array X is outside its declared extent 1..=16");
            assert!(msg.contains(&expected), "{msg}");
        }
        // The same for a replicated integer array read inside a subscript: 5 is a fine
        // subscript of X in the first loop and past the end of IB in the second.
        let msg = message(5);
        assert!(
            msg.contains("line 9: subscript 5 of array IB is outside its declared extent 1..=4"),
            "{msg}"
        );
    }

    // ------------------------------------------------------- stream invalidation --

    /// Two reduction loops the optimizer fuses into one group with per-member
    /// dependence sets `[IA]` and `[IB]`, plus a drift of `IB` that keeps the group's
    /// build from being hoisted.  Steps: 0 DISTRIBUTE, 1 BuildSchedule, 2 FusedLoop,
    /// 3 the `IB` update — driven one by one from the tests below.
    const TWO_MEMBER: &str = "REAL x(32), y(32), f(32), g(32)\n\
         INTEGER ia(32), ib(32), map(32)\n\
         C$ DECOMPOSITION reg(32)\n\
         C$ DISTRIBUTE reg(BLOCK)\n\
         C$ ALIGN x, y, f, g WITH reg\n\
         FORALL i = 1, 32\n\
         REDUCE(SUM, f(ia(i)), x(i))\n\
         END FORALL\n\
         FORALL i = 1, 32\n\
         REDUCE(SUM, g(ib(i)), y(i))\n\
         END FORALL\n\
         FORALL i = 1, 32\n\
         ib(i) = ib(i) - (ib(i) / 32) * 32 + 1\n\
         END FORALL\n";

    fn two_member_setup(exec: &mut Executor<'_>, ia: &[i64], ib: &[i64]) {
        exec.set_integer_array("IA", ia);
        exec.set_integer_array("IB", ib);
        // Integer-valued data: sums are exact whatever order contributions arrive in.
        exec.set_real_array("X", &(0..32).map(|i| (i % 7) as f64).collect::<Vec<_>>());
        exec.set_real_array(
            "Y",
            &(0..32).map(|i| (i % 5) as f64 + 1.0).collect::<Vec<_>>(),
        );
        exec.set_real_array("F", &[0.0; 32]);
        exec.set_real_array("G", &[0.0; 32]);
    }

    /// `(address, contents)` of every stream of one group member.
    fn member_streams(exec: &Executor<'_>, member: usize) -> Vec<(*const u32, Vec<u32>)> {
        let rt = exec.group(0).expect("group 0 exists");
        let local = rt.local[member].as_ref().expect("member was localized");
        local
            .streams
            .iter()
            .map(|s| (s.as_ptr(), s.clone()))
            .collect()
    }

    /// `target(idx(i)) += source(i)` evaluated sequentially, `rounds` times.
    fn scatter_sum(idx: &[i64], source: impl Fn(usize) -> f64, rounds: usize) -> Vec<f64> {
        let mut out = vec![0.0; idx.len()];
        for _ in 0..rounds {
            for (i, &t) in idx.iter().enumerate() {
                out[(t - 1) as usize] += source(i);
            }
        }
        out
    }

    /// (a) A guarded rebuild re-localizes only the member whose indirection array
    /// moved; the clean member's streams are the very same allocations.  (c) The patch
    /// appends ghost slots (the drifted `IB` reaches elements no one referenced
    /// before), which leaves the clean member's local indices valid.
    #[test]
    fn guarded_rebuild_relocalizes_only_the_dirty_member() {
        let ia: Vec<i64> = (0..32).map(|i| ((i * 5) % 32 + 1) as i64).collect();
        let ib: Vec<i64> = (1..=32).collect(); // identity: member 1 starts all-local
        let (ia2, ib2) = (ia.clone(), ib.clone());
        let out = run(MachineConfig::new(2).with_ledger(), move |rank| {
            let (program, report) = compile(TWO_MEMBER).unwrap();
            assert!(
                report.has_applied("fuse", "fused 2 loops"),
                "{}",
                report.render()
            );
            let mut exec = Executor::new(rank, &program);
            two_member_setup(&mut exec, &ia2, &ib2);
            for step in 0..4 {
                exec.run_step(rank, step);
            }
            let ghosts_before = exec
                .group(0)
                .unwrap()
                .schedule
                .as_ref()
                .unwrap()
                .ghost_len();
            let (clean_before, dirty_before) = (member_streams(&exec, 0), member_streams(&exec, 1));
            exec.run_step(rank, 1); // IB drifted: guarded rebuild
            assert_eq!(
                exec.group_stats(0),
                (1, 1, 0),
                "one build, one member patched"
            );
            assert_eq!(
                member_streams(&exec, 0),
                clean_before,
                "clean member re-localized"
            );
            assert_ne!(
                member_streams(&exec, 1),
                dirty_before,
                "dirty member kept stale streams"
            );
            let ghosts_after = exec
                .group(0)
                .unwrap()
                .schedule
                .as_ref()
                .unwrap()
                .ghost_len();
            assert!(
                ghosts_after > ghosts_before,
                "the patch should append ghost slots"
            );
            exec.run_step(rank, 2);
            exec.run_step(rank, 1); // nothing moved since: both members reused
            assert_eq!(exec.group_stats(0), (1, 1, 1));
            (
                exec.get_real_array(rank, "F"),
                exec.get_real_array(rank, "G"),
            )
        });
        // Against a from-scratch evaluation: F took two rounds through IA, G one round
        // through IB and one through the drifted IB.
        let f = scatter_sum(&ia, |i| (i % 7) as f64, 2);
        let drifted: Vec<i64> = ib.iter().map(|&b| b - (b / 32) * 32 + 1).collect();
        let mut g = scatter_sum(&ib, |i| (i % 5) as f64 + 1.0, 1);
        for (g, d) in g
            .iter_mut()
            .zip(scatter_sum(&drifted, |i| (i % 5) as f64 + 1.0, 1))
        {
            *g += d;
        }
        for (got_f, got_g) in &out.results {
            assert_eq!((got_f, got_g), (&f, &g));
        }
    }

    /// The patch-versus-rebuild rule.  Run fused, `TWO_MEMBER` is one group with a clean
    /// member (`IA` never moves) and a dirty one: it patches.  Run naive, the same loops
    /// are two groups of one: `IB`'s is all dirty every sweep and rebuilds from scratch
    /// — a patch would re-ship its whole schedule as edits — while `IA`'s is reused.
    #[test]
    fn all_dirty_groups_rebuild_and_partly_dirty_groups_patch() {
        let ia: Vec<i64> = (0..32).map(|i| ((i * 5) % 32 + 1) as i64).collect();
        let ib: Vec<i64> = (0..32).map(|i| ((i * 3 + 1) % 32 + 1) as i64).collect();
        for optimize in [true, false] {
            let (ia, ib) = (ia.clone(), ib.clone());
            run(MachineConfig::new(2).with_ledger(), move |rank| {
                let program = program(TWO_MEMBER, optimize);
                let mut exec = Executor::new(rank, &program);
                two_member_setup(&mut exec, &ia, &ib);
                // Four sweeps, each ending with the `IB` drift (step 3 either way); the
                // DISTRIBUTE (step 0) runs once.
                exec.run_all(rank);
                for _ in 0..3 {
                    for step in 1..4 {
                        exec.run_step(rank, step);
                    }
                }
                if optimize {
                    assert_eq!(exec.group_stats(0), (1, 3, 0));
                } else {
                    assert_eq!(exec.group_stats(0), (1, 0, 3), "IA's loop");
                    assert_eq!(exec.group_stats(1), (4, 0, 0), "IB's loop");
                    assert_eq!(exec.group_cache_stats(1).patches, 0);
                }
                // A rebuild is the cache's in-place miss: one per rebuild, no evictions.
                for group in 0..if optimize { 1 } else { 2 } {
                    let cache = exec.group_cache_stats(group);
                    assert_eq!(cache.misses, exec.group_stats(group).0, "group {group}");
                    assert_eq!(cache.evictions, 0, "group {group}");
                }
            });
        }
    }

    /// (b) A `DISTRIBUTE(map)` between two executions of the same loops starts a new
    /// epoch: every stream is rebuilt against the new translation table, in the fused
    /// group and in the naive lowering's two groups of one alike.
    #[test]
    fn redistribution_rebuilds_every_stream() {
        let ia: Vec<i64> = (0..32).map(|i| ((i * 5) % 32 + 1) as i64).collect();
        let ib: Vec<i64> = (0..32).map(|i| ((i * 3 + 1) % 32 + 1) as i64).collect();
        let f = scatter_sum(&ia, |i| (i % 7) as f64, 2);
        let g = scatter_sum(&ib, |i| (i % 5) as f64 + 1.0, 2);
        for optimize in [true, false] {
            let (ia, ib) = (ia.clone(), ib.clone());
            let out = run(MachineConfig::new(3).with_ledger(), move |rank| {
                let program = program(TWO_MEMBER, optimize);
                let mut exec = Executor::new(rank, &program);
                two_member_setup(&mut exec, &ia, &ib);
                exec.set_integer_array(
                    "MAP",
                    &(0..32).map(|g| (g * 2 + 1) % 3).collect::<Vec<_>>(),
                );
                // Both paths run their loops as steps 1 and 2.
                let sweep = |exec: &mut Executor<'_>, rank: &mut Rank| {
                    exec.run_step(rank, 1);
                    exec.run_step(rank, 2);
                };
                exec.run_step(rank, 0);
                sweep(&mut exec, rank);
                let before = optimize.then(|| (member_streams(&exec, 0), member_streams(&exec, 1)));
                exec.apply_distribute(rank, "REG", &DistSpec::Map("MAP".into()));
                sweep(&mut exec, rank);
                if let Some((m0, m1)) = before {
                    assert_eq!(exec.group_stats(0), (2, 0, 0), "new epoch, full rebuild");
                    // Rebuilt, not reused: each stream is a new allocation (made while the
                    // old one was still alive, so the addresses cannot coincide).
                    for (old, member) in [(m0, 0), (m1, 1)] {
                        let new = member_streams(&exec, member);
                        assert!(new.iter().zip(&old).all(|(n, o)| n.0 != o.0));
                    }
                } else {
                    assert_eq!(exec.group_stats(0), (2, 0, 0));
                    assert_eq!(exec.group_stats(1), (2, 0, 0));
                }
                (
                    exec.get_real_array(rank, "F"),
                    exec.get_real_array(rank, "G"),
                )
            });
            for (got_f, got_g) in &out.results {
                assert_eq!((got_f, got_g), (&f, &g), "optimize = {optimize}");
            }
        }
    }
}
