//! Epoch-numbered assignment tables mapping grid cells to worker
//! processes, plus pluggable placement strategies.
//!
//! Placement is *stable*: a live worker never loses a cell it already
//! hosts. Strategies only decide where **orphaned** cells (never assigned,
//! or owned by a worker that just died) go, so a failover disturbs exactly
//! the cells of the dead worker and nothing else.

use invalidb_common::{GridCoord, GridShape};
use std::collections::BTreeMap;

/// A live worker as seen by the coordinator, input to [`Placement`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerInfo {
    /// Unique worker name (from its `JoinCluster` frame).
    pub name: String,
    /// Relative capacity; a weight-2 worker should host ~2× the cells of a
    /// weight-1 worker. Zero is treated as one.
    pub weight: u32,
}

/// One epoch's cell → worker map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignmentTable {
    /// Epoch this table was computed in. Strictly increases on every
    /// membership change; workers reject `Assign` frames from older epochs.
    pub epoch: u64,
    /// Shape of the grid being assigned.
    pub grid: GridShape,
    /// Owner of each cell, indexed by task index (row-major); `None` while
    /// no live worker hosts the cell.
    pub cells: Vec<Option<String>>,
}

impl AssignmentTable {
    /// An empty table (epoch 0, every cell unassigned).
    pub fn new(grid: GridShape) -> AssignmentTable {
        AssignmentTable { epoch: 0, grid, cells: vec![None; grid.nodes()] }
    }

    /// The worker hosting a cell, if any.
    pub fn worker_of(&self, cell: usize) -> Option<&str> {
        self.cells.get(cell).and_then(|w| w.as_deref())
    }

    /// Task indices currently assigned to a worker, ascending.
    pub fn cells_of(&self, worker: &str) -> Vec<usize> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, w)| w.as_deref() == Some(worker))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of cells with no live owner.
    pub fn unassigned(&self) -> usize {
        self.cells.iter().filter(|w| w.is_none()).count()
    }

    /// The assigned cells as `(task index, worker)` pairs — the payload of
    /// an `Assign` frame (unassigned cells are simply absent).
    pub fn assigned_cells(&self) -> Vec<(u32, String)> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.as_ref().map(|w| (i as u32, w.clone())))
            .collect()
    }

    /// Clears every cell owned by a worker (it died or left), returning how
    /// many cells were orphaned.
    pub fn evict(&mut self, worker: &str) -> usize {
        let mut orphaned = 0;
        for cell in self.cells.iter_mut() {
            if cell.as_deref() == Some(worker) {
                *cell = None;
                orphaned += 1;
            }
        }
        orphaned
    }

    /// Renders the table as an aligned text grid (rows = query partitions,
    /// columns = write partitions), e.g. for operator consoles:
    ///
    /// ```text
    /// epoch 3 (2x2)
    ///        wp0      wp1
    /// qp0    worker-a  worker-a
    /// qp1    worker-b  -
    /// ```
    pub fn render(&self) -> String {
        let width =
            self.cells.iter().map(|w| w.as_deref().unwrap_or("-").len()).max().unwrap_or(1).max(4);
        let mut out = format!(
            "epoch {} ({}x{})\n",
            self.epoch, self.grid.query_partitions, self.grid.write_partitions
        );
        out.push_str("     ");
        for wp in 0..self.grid.write_partitions {
            out.push_str(&format!(" {:<width$}", format!("wp{wp}")));
        }
        out.push('\n');
        for qp in 0..self.grid.query_partitions {
            out.push_str(&format!("qp{qp:<3}"));
            for wp in 0..self.grid.write_partitions {
                let task = self.grid.task_index(GridCoord { qp, wp });
                let owner = self.worker_of(task).unwrap_or("-");
                out.push_str(&format!(" {owner:<width$}"));
            }
            out.push('\n');
        }
        out
    }
}

/// A placement strategy: given the live workers and the current (already
/// evicted) table, assign every orphaned cell.
///
/// Implementations must be stable — cells already owned by a live worker
/// stay put — and must assign every orphan whenever at least one worker is
/// live.
pub trait Placement: Send + Sync {
    /// Fills the `None` entries of `cells` from `workers`. `grid` gives
    /// the row/column structure for affinity decisions.
    fn place(&self, grid: GridShape, workers: &[WorkerInfo], cells: &mut [Option<String>]);
}

fn weight_of(workers: &[WorkerInfo], name: &str) -> u64 {
    workers.iter().find(|w| w.name == name).map(|w| w.weight.max(1) as u64).unwrap_or(1)
}

/// Weighted least-loaded placement (the default): each orphan goes to the
/// worker with the lowest `assigned / weight` ratio, ties broken by name
/// for determinism.
pub struct RoundRobin;

impl Placement for RoundRobin {
    fn place(&self, _grid: GridShape, workers: &[WorkerInfo], cells: &mut [Option<String>]) {
        if workers.is_empty() {
            return;
        }
        let mut load: BTreeMap<&str, u64> = workers.iter().map(|w| (w.name.as_str(), 0)).collect();
        for owner in cells.iter().flatten() {
            if let Some(l) = load.get_mut(owner.as_str()) {
                *l += 1;
            }
        }
        for cell in cells.iter_mut() {
            if cell.is_some() {
                continue;
            }
            // Scaled comparison avoids floating point: pick the worker
            // minimizing load/weight.
            let best = load
                .iter()
                .min_by_key(|(name, &l)| (l * 1_000 / weight_of(workers, name), name.to_string()))
                .map(|(name, _)| name.to_string())
                .expect("non-empty worker set");
            *load.get_mut(best.as_str()).expect("known worker") += 1;
            *cell = Some(best);
        }
    }
}

/// Row-affinity placement, informed by hypergraph-partitioning work on
/// transactional workloads: cells of one query-partition row exchange
/// staged (sorted) output with the row anchor `(qp, 0)`, so
/// co-locating a row on one worker eliminates that shuffle traffic. Each
/// orphan goes to the worker already hosting the most cells of its row,
/// falling back to weighted least-loaded when the row has no incumbent.
pub struct RowAffinity;

impl Placement for RowAffinity {
    fn place(&self, grid: GridShape, workers: &[WorkerInfo], cells: &mut [Option<String>]) {
        if workers.is_empty() {
            return;
        }
        let mut load: BTreeMap<&str, u64> = workers.iter().map(|w| (w.name.as_str(), 0)).collect();
        for owner in cells.iter().flatten() {
            if let Some(l) = load.get_mut(owner.as_str()) {
                *l += 1;
            }
        }
        for qp in 0..grid.query_partitions {
            let row: Vec<usize> = grid.row_tasks(qp).collect();
            for &task in &row {
                if cells[task].is_some() {
                    continue;
                }
                // Incumbent: the live worker with the most cells in this
                // row (dead owners were evicted before placement).
                let mut row_counts: BTreeMap<&str, u64> = BTreeMap::new();
                for &t in &row {
                    if let Some(owner) = cells[t].as_deref() {
                        if load.contains_key(owner) {
                            *row_counts.entry(owner).or_insert(0) += 1;
                        }
                    }
                }
                let best = row_counts
                    .iter()
                    .max_by_key(|(name, &c)| (c, std::cmp::Reverse(name.to_string())))
                    .map(|(name, _)| name.to_string())
                    .unwrap_or_else(|| {
                        load.iter()
                            .min_by_key(|(name, &l)| {
                                (l * 1_000 / weight_of(workers, name), name.to_string())
                            })
                            .map(|(name, _)| name.to_string())
                            .expect("non-empty worker set")
                    });
                *load.get_mut(best.as_str()).expect("known worker") += 1;
                cells[task] = Some(best);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workers(names: &[&str]) -> Vec<WorkerInfo> {
        names.iter().map(|n| WorkerInfo { name: n.to_string(), weight: 1 }).collect()
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let grid = GridShape::new(2, 2);
        let mut table = AssignmentTable::new(grid);
        RoundRobin.place(grid, &workers(&["a", "b"]), &mut table.cells);
        assert_eq!(table.unassigned(), 0);
        assert_eq!(table.cells_of("a").len(), 2);
        assert_eq!(table.cells_of("b").len(), 2);
    }

    #[test]
    fn placement_is_stable_for_survivors() {
        let grid = GridShape::new(2, 2);
        let mut table = AssignmentTable::new(grid);
        RoundRobin.place(grid, &workers(&["a", "b"]), &mut table.cells);
        let a_before = table.cells_of("a");
        // b dies; its cells are orphaned and must land on a — but a's own
        // cells must not move.
        table.evict("b");
        RoundRobin.place(grid, &workers(&["a"]), &mut table.cells);
        assert_eq!(table.unassigned(), 0);
        for cell in a_before {
            assert_eq!(table.worker_of(cell), Some("a"));
        }
    }

    #[test]
    fn weights_bias_load() {
        let grid = GridShape::new(2, 3);
        let mut cells = vec![None; grid.nodes()];
        let ws = vec![
            WorkerInfo { name: "big".into(), weight: 2 },
            WorkerInfo { name: "small".into(), weight: 1 },
        ];
        RoundRobin.place(grid, &ws, &mut cells);
        let big = cells.iter().filter(|c| c.as_deref() == Some("big")).count();
        let small = cells.iter().filter(|c| c.as_deref() == Some("small")).count();
        assert!(big > small, "weight-2 worker should host more cells ({big} vs {small})");
    }

    #[test]
    fn row_affinity_keeps_rows_together() {
        let grid = GridShape::new(2, 3);
        let mut cells = vec![None; grid.nodes()];
        RowAffinity.place(grid, &workers(&["a", "b"]), &mut cells);
        // Every row should be hosted by exactly one worker.
        for qp in 0..grid.query_partitions {
            let owners: std::collections::BTreeSet<_> =
                grid.row_tasks(qp).map(|t| cells[t].clone().unwrap()).collect();
            assert_eq!(owners.len(), 1, "row {qp} split across workers: {owners:?}");
        }
        assert_eq!(cells.iter().filter(|c| c.is_none()).count(), 0);
    }

    #[test]
    fn row_affinity_follows_the_incumbent() {
        let grid = GridShape::new(1, 3);
        let mut cells = vec![Some("a".to_string()), None, None];
        RowAffinity.place(grid, &workers(&["a", "b"]), &mut cells);
        // a already anchors the row: the orphans join it.
        assert!(cells.iter().all(|c| c.as_deref() == Some("a")), "{cells:?}");
    }

    #[test]
    fn eviction_orphans_only_the_dead_workers_cells() {
        let grid = GridShape::new(2, 2);
        let mut table = AssignmentTable::new(grid);
        RoundRobin.place(grid, &workers(&["a", "b"]), &mut table.cells);
        let orphaned = table.evict("a");
        assert_eq!(orphaned, 2);
        assert_eq!(table.unassigned(), 2);
        assert_eq!(table.cells_of("b").len(), 2);
    }

    #[test]
    fn render_is_a_grid() {
        let grid = GridShape::new(2, 2);
        let mut table = AssignmentTable::new(grid);
        table.epoch = 3;
        RoundRobin.place(grid, &workers(&["a"]), &mut table.cells);
        let s = table.render();
        assert!(s.contains("epoch 3 (2x2)"));
        assert!(s.contains("qp0"));
        assert!(s.contains("wp1"));
    }
}
