//! Span arithmetic for the traced run, and the time ledger built from it.
//!
//! A span's *self* time is its duration minus the part of its interval
//! that its direct children cover (children on pool threads overlap, so
//! the cover is a union of intervals, not a sum). The ledger lists, per
//! node of workload → crate calls → kernels, the parent's wall time, each
//! child's share and the self row; a node passes when its children add up
//! to no more than the parent plus [`LEDGER_SLACK`].

use std::collections::HashMap;

use fsi_runtime::trace::SpanRow;
use fsi_runtime::RunReport;

/// How far the children of a ledger node may exceed the parent (as a
/// fraction of the parent) before the node fails.
pub const LEDGER_SLACK: f64 = 0.05;

/// An indexed view of one traced phase's spans.
pub struct Spans {
    rows: Vec<SpanRow>,
    children: HashMap<u64, Vec<usize>>,
    by_id: HashMap<u64, usize>,
}

impl Spans {
    /// Indexes the spans of a captured report.
    pub fn new(report: RunReport) -> Self {
        let rows = report.spans;
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut by_id = HashMap::new();
        for (i, r) in rows.iter().enumerate() {
            by_id.insert(r.id, i);
            if let Some(p) = r.parent {
                children.entry(p).or_default().push(i);
            }
        }
        Spans {
            rows,
            children,
            by_id,
        }
    }

    /// Indices of all spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.rows.len()).filter(move |&i| self.rows[i].name == name)
    }

    /// The span at index `i`.
    pub fn row(&self, i: usize) -> &SpanRow {
        &self.rows[i]
    }

    /// Direct children of span `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        self.children
            .get(&self.rows[i].id)
            .map_or(&[][..], Vec::as_slice)
    }

    /// Whether any ancestor of `i` has a name in `names`.
    fn has_ancestor_in(&self, i: usize, names: &[&str]) -> bool {
        let mut cur = self.rows[i].parent;
        while let Some(id) = cur {
            let Some(&j) = self.by_id.get(&id) else {
                return false;
            };
            if names.contains(&self.rows[j].name.as_str()) {
                return true;
            }
            cur = self.rows[j].parent;
        }
        false
    }

    /// Spans named in `names` that are not nested in another span of the
    /// same family — the family's *outermost* occurrences.
    pub fn outermost(&self, names: &[&str]) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&i| names.contains(&self.rows[i].name.as_str()))
            .filter(|&i| !self.has_ancestor_in(i, names))
            .collect()
    }

    /// Total duration of the given spans, in seconds.
    pub fn seconds(&self, idx: &[usize]) -> f64 {
        idx.iter().map(|&i| self.rows[i].seconds()).sum()
    }

    /// Total (inclusive) flops of the given spans.
    pub fn flops(&self, idx: &[usize]) -> u64 {
        idx.iter().map(|&i| self.rows[i].flops).sum()
    }

    /// Seconds of span `i`'s interval covered by those of its direct
    /// children that satisfy `keep`.
    pub fn child_cover(&self, i: usize, keep: impl Fn(usize) -> bool) -> f64 {
        let r = &self.rows[i];
        let (lo, hi) = (r.start_ns, r.start_ns + r.dur_ns);
        let intervals: Vec<(u64, u64)> = self
            .children(i)
            .iter()
            .copied()
            .filter(|&c| keep(c))
            .map(|c| {
                let c = &self.rows[c];
                (c.start_ns.max(lo), (c.start_ns + c.dur_ns).min(hi))
            })
            .collect();
        union_ns(intervals) as f64 * 1e-9
    }

    /// Self time of span `i`: its duration minus its children's cover.
    pub fn self_seconds(&self, i: usize) -> f64 {
        self.rows[i].seconds() - self.child_cover(i, |_| true)
    }

    /// Summed self time of all spans named `name`.
    pub fn self_of(&self, name: &str) -> f64 {
        self.named(name).map(|i| self.self_seconds(i)).sum()
    }
}

/// Length of the union of half-open `[start, end)` intervals.
pub fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.retain(|(a, b)| b > a);
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// One node of the time ledger.
#[derive(Clone, Debug)]
pub struct Node {
    /// Node label, `layer.item`.
    pub name: String,
    /// The parent's wall (or capacity) seconds.
    pub wall_s: f64,
    /// Each child's seconds within the parent.
    pub children: Vec<(String, f64)>,
}

impl Node {
    /// A node with no children yet.
    pub fn new(name: impl Into<String>, wall_s: f64) -> Self {
        Node {
            name: name.into(),
            wall_s,
            children: Vec::new(),
        }
    }

    /// Adds a child row.
    pub fn child(mut self, name: impl Into<String>, seconds: f64) -> Self {
        self.children.push((name.into(), seconds));
        self
    }

    /// Sum of the children.
    pub fn children_s(&self) -> f64 {
        self.children.iter().map(|(_, s)| s).sum()
    }

    /// The self row: parent time no child accounts for.
    pub fn self_s(&self) -> f64 {
        self.wall_s - self.children_s()
    }

    /// Children + self come within [`LEDGER_SLACK`] of the parent, i.e. the
    /// children never claim more than the parent's time plus the slack.
    pub fn passes(&self) -> bool {
        self.wall_s >= 0.0 && self.children_s() <= self.wall_s * (1.0 + LEDGER_SLACK)
    }

    /// One-line rendering for the run's detail output.
    pub fn render(&self) -> String {
        let kids: Vec<String> = self
            .children
            .iter()
            .map(|(n, s)| format!("{n}={s:.4}"))
            .collect();
        format!(
            "{} wall={:.4}s [{}] self={:.4}s {}",
            self.name,
            self.wall_s,
            kids.join(" "),
            self.self_s(),
            if self.passes() { "ok" } else { "FAIL" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_skips_empties() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25), (3, 3)]), 20);
        assert_eq!(union_ns(vec![(10, 20), (0, 5), (5, 10)]), 20);
    }

    #[test]
    fn node_self_row_and_slack() {
        let n = Node::new("a", 1.0).child("b", 0.5).child("c", 0.3);
        assert!((n.self_s() - 0.2).abs() < 1e-12);
        assert!(n.passes());
        assert!(Node::new("a", 1.0).child("b", 1.04).passes());
        assert!(!Node::new("a", 1.0).child("b", 0.6).child("c", 0.5).passes());
    }
}
