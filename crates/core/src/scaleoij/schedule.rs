//! The dynamic balanced schedule (paper §V-B, Algorithm 3).
//!
//! Keys hash into `P` fixed partitions; a [`Schedule`] maps every partition
//! to its **virtual team** — the set of joiners sharing that partition's
//! workload. The partitioner routes each tuple to one team member
//! (round-robin) for writing; joins read every member's index.
//!
//! The loads Algorithm 3 balances are event counts (Eq. 3), so it runs on
//! an event-count cadence: the driver's router counts what it routes and
//! runs one pass every [`SCHEDULE_EVERY`] heartbeats' worth of tuples. The
//! schedule is therefore a pure function of the input and the config.
//!
//! Rebalancing is **replication-only**: a partition's team only ever grows
//! (the paper: "we only allow sharing the ownership of a partition rather
//! than transferring"), so a joiner that ever wrote tuples of a partition
//! remains in its team and the tuples stay readable — no data migration,
//! and in-flight tuples stay correct across schedule changes.
//!
//! Batched routing (DESIGN.md §10) interacts with this the same way
//! in-flight messages do: the driver picks a batch's destination member
//! when the **first** tuple is coalesced, and because teams only ever
//! grow, that member is still a valid writer for every tuple in the
//! batch when it flushes — even if a rebalance landed in between.

use oij_metrics::unbalancedness;

/// Routed tuples between two Algorithm 3 passes, in heartbeats: 16 ×
/// `heartbeat_every` (8,192 tuples at the default 512). With `λ` =
/// [`SCHEDULE_DECAY`] the decayed counts then span about two passes, and a
/// pass over 64 uniform partitions sees sampling noise well below
/// [`SCHEDULE_FLOOR`].
pub const SCHEDULE_EVERY: usize = 16;

/// Algorithm 3's `δ`: the least unbalancedness improvement a replication
/// step must buy to be accepted.
pub const SCHEDULE_DELTA: f64 = 0.01;

/// The rebalancing floor: a pass acts only when the estimated
/// unbalancedness (Eq. 2) exceeds it. Replication is monotone (teams never
/// shrink), so acting on noise in an already balanced system would slowly
/// ratchet every partition onto every joiner, multiplying read fan-out.
pub const SCHEDULE_FLOOR: f64 = 0.1;

/// Algorithm 3's statistics decay `λ`, applied after every pass.
pub const SCHEDULE_DECAY: f64 = 0.5;

/// An immutable partition → virtual-team mapping, published through an RCU
/// cell and replaced only by the driver's routing step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `teams[p]` = sorted joiner ids sharing partition `p`.
    pub teams: Vec<Vec<usize>>,
    /// Monotone version for diagnostics.
    pub version: u64,
}

impl Schedule {
    /// The initial static schedule: partition `p` owned solely by joiner
    /// `p mod J` (identical to Key-OIJ's static binding).
    pub fn initial(partitions: usize, joiners: usize) -> Self {
        Schedule {
            teams: (0..partitions).map(|p| vec![p % joiners]).collect(),
            version: 0,
        }
    }

    /// Per-joiner estimated workload under this schedule (paper Eq. 3):
    /// `W_i = Σ_{p ∋ i} count_p / |team_p|`.
    pub fn estimated_loads(&self, counts: &[f64], joiners: usize) -> Vec<f64> {
        let mut loads = vec![0.0; joiners];
        for (team, &count) in self.teams.iter().zip(counts) {
            let share = count / team.len() as f64;
            for &j in team {
                loads[j] += share;
            }
        }
        loads
    }

    /// Unbalancedness of the estimated loads (paper Eq. 2).
    pub fn unbalancedness(&self, counts: &[f64], joiners: usize) -> f64 {
        unbalancedness(&self.estimated_loads(counts, joiners))
    }
}

/// Per-partition tuple counts, bumped by the router on every routed tuple
/// and decayed after each Algorithm 3 pass (line 13). Owned by the driver's
/// route, which is their only reader and writer.
#[derive(Debug)]
pub struct PartitionStats {
    counts: Vec<u64>,
}

impl PartitionStats {
    /// Zeroed counters for `partitions` partitions.
    pub fn new(partitions: usize) -> Self {
        PartitionStats {
            counts: vec![0; partitions],
        }
    }

    /// Counts one tuple routed to `partition`.
    #[inline]
    pub fn bump(&mut self, partition: usize) {
        self.counts[partition] += 1;
    }

    /// All counters as floats (Eq. 3's `count_p`).
    pub fn snapshot(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }

    /// Decays every counter by `λ`.
    pub fn decay(&mut self, lambda: f64) {
        for c in &mut self.counts {
            *c = (*c as f64 * lambda) as u64;
        }
    }
}

/// One pass of Algorithm 3: returns a better schedule, or `None` when no
/// replication improves unbalancedness by more than `delta`.
///
/// Implementation of the paper's loop:
/// 1. estimate `W_i` per Eq. 3 and pick `J_max`, `J_min`;
/// 2. walk `J_max`'s partitions in descending workload order and
///    tentatively replicate one onto `J_min`;
/// 3. accept the first replication improving unbalancedness by > `delta`
///    and repeat from 1; stop when an iteration changes nothing.
pub fn rebalance(
    current: &Schedule,
    counts: &[f64],
    joiners: usize,
    delta: f64,
) -> Option<Schedule> {
    assert_eq!(
        current.teams.len(),
        counts.len(),
        "partition count mismatch"
    );
    if joiners <= 1 {
        return None;
    }
    let mut schedule = current.clone();
    let mut last_unb = schedule.unbalancedness(counts, joiners);
    let mut changed = false;

    loop {
        let loads = schedule.estimated_loads(counts, joiners);
        let j_max = (0..joiners)
            .max_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .expect("joiners > 0");
        let j_min = (0..joiners)
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .expect("joiners > 0");
        if j_max == j_min {
            break;
        }

        // Priority queue of J_max's partitions by (shared) workload.
        let mut candidates: Vec<(f64, usize)> = schedule
            .teams
            .iter()
            .enumerate()
            .filter(|(_, team)| team.contains(&j_max))
            .map(|(p, team)| (counts[p] / team.len() as f64, p))
            .collect();
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0));

        let mut accepted = false;
        for (_, p) in candidates {
            if schedule.teams[p].contains(&j_min) {
                continue; // already shared with the target
            }
            // Tentative replication of p onto J_min.
            schedule.teams[p].push(j_min);
            schedule.teams[p].sort_unstable();
            let unb = schedule.unbalancedness(counts, joiners);
            if last_unb - unb > delta {
                last_unb = unb;
                accepted = true;
                changed = true;
                break;
            }
            // Revert and try the next candidate.
            schedule.teams[p].retain(|&j| j != j_min);
        }
        if !accepted {
            break; // S_new did not change in this iteration
        }
    }

    if changed {
        schedule.version = current.version + 1;
        Some(schedule)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_schedule_is_static_round_robin() {
        let s = Schedule::initial(8, 3);
        assert_eq!(s.teams[0], vec![0]);
        assert_eq!(s.teams[1], vec![1]);
        assert_eq!(s.teams[3], vec![0]);
        assert_eq!(s.version, 0);
    }

    #[test]
    fn eq3_load_estimation_shares_by_team_size() {
        let mut s = Schedule::initial(2, 2);
        s.teams[0] = vec![0, 1]; // partition 0 shared
        let loads = s.estimated_loads(&[100.0, 40.0], 2);
        assert_eq!(loads, vec![50.0, 90.0]); // j0: 100/2; j1: 100/2 + 40
    }

    #[test]
    fn rebalance_spreads_one_hot_partition() {
        // 4 partitions, 4 joiners, all load on partition 0 (1 hot key).
        let s = Schedule::initial(4, 4);
        let counts = [1000.0, 0.0, 0.0, 0.0];
        let out = rebalance(&s, &counts, 4, 0.01).expect("should improve");
        // The hot partition's team must have grown.
        assert!(out.teams[0].len() > 1, "{:?}", out.teams);
        assert!(
            out.unbalancedness(&counts, 4) < s.unbalancedness(&counts, 4),
            "unbalancedness must strictly improve"
        );
        assert_eq!(out.version, 1);
    }

    #[test]
    fn rebalance_reaches_near_perfect_balance_for_single_hot_key() {
        // Repeatedly rebalancing a single hot partition ends with everyone
        // in its team.
        let mut s = Schedule::initial(4, 4);
        let counts = [1000.0, 0.0, 0.0, 0.0];
        while let Some(next) = rebalance(&s, &counts, 4, 0.001) {
            s = next;
        }
        assert_eq!(s.teams[0], vec![0, 1, 2, 3]);
        assert!(s.unbalancedness(&counts, 4) < 1e-9);
    }

    #[test]
    fn balanced_input_needs_no_change() {
        let s = Schedule::initial(8, 4);
        let counts = [10.0; 8];
        assert!(rebalance(&s, &counts, 4, 0.01).is_none());
    }

    #[test]
    fn replication_only_never_removes_members() {
        let s = Schedule::initial(16, 4);
        let mut counts = vec![0.0; 16];
        counts[0] = 500.0;
        counts[1] = 300.0;
        let mut cur = s.clone();
        for _ in 0..10 {
            match rebalance(&cur, &counts, 4, 0.001) {
                Some(next) => {
                    for (p, team) in cur.teams.iter().enumerate() {
                        for j in team {
                            assert!(
                                next.teams[p].contains(j),
                                "member {j} dropped from partition {p}"
                            );
                        }
                    }
                    cur = next;
                }
                None => break,
            }
        }
    }

    #[test]
    fn single_joiner_never_rebalances() {
        let s = Schedule::initial(4, 1);
        assert!(rebalance(&s, &[100.0, 0.0, 0.0, 0.0], 1, 0.01).is_none());
    }

    #[test]
    fn stats_bump_snapshot_decay() {
        let mut stats = PartitionStats::new(4);
        for _ in 0..10 {
            stats.bump(2);
        }
        stats.bump(0);
        assert_eq!(stats.snapshot(), vec![1.0, 0.0, 10.0, 0.0]);
        stats.decay(0.5);
        assert_eq!(stats.snapshot(), vec![0.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn zipf_like_counts_reduce_unbalancedness_substantially() {
        // 64 partitions, 8 joiners, heavy-tailed counts.
        let s = Schedule::initial(64, 8);
        let counts: Vec<f64> = (0..64).map(|p| 1000.0 / (p + 1) as f64).collect();
        let before = s.unbalancedness(&counts, 8);
        let mut cur = s;
        while let Some(next) = rebalance(&cur, &counts, 8, 0.001) {
            cur = next;
        }
        let after = cur.unbalancedness(&counts, 8);
        assert!(
            after < before * 0.2,
            "expected ≥5x improvement: {before} → {after}"
        );
    }
}
