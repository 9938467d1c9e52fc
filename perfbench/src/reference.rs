//! The benchmark's own correctness reference: a plain graph search over the
//! edges the benchmark generated, tracking the benchmark's own writes. It
//! shares no code with the program under test beyond the edge list.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::inputs::Op;

#[derive(Debug, Clone, Default)]
pub struct Graph {
    succ: HashMap<u64, BTreeSet<u64>>,
}

impl Graph {
    pub fn new(edges: &[(u64, u64)]) -> Graph {
        let mut g = Graph::default();
        for &(a, b) in edges {
            g.succ.entry(a).or_default().insert(b);
        }
        g
    }

    /// Applies a write the benchmark sent. Returns false when the write is
    /// a no-op on the reference (which the workloads never generate).
    pub fn apply(&mut self, op: Op) -> bool {
        match op {
            Op::Read(_) => true,
            Op::Write {
                from,
                to,
                delete: true,
            } => self.succ.get_mut(&from).is_some_and(|s| s.remove(&to)),
            Op::Write {
                from,
                to,
                delete: false,
            } => self.succ.entry(from).or_default().insert(to),
        }
    }

    /// Every `y` with a path of length at least one from `key`: the answer
    /// set of `P(key, y)`.
    pub fn reachable(&self, key: u64) -> BTreeSet<u64> {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut stack: Vec<u64> = self.succ.get(&key).into_iter().flatten().copied().collect();
        while let Some(v) = stack.pop() {
            if seen.insert(v) {
                stack.extend(self.succ.get(&v).into_iter().flatten().copied());
            }
        }
        seen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Rng, PROGRAM};
    use recurs_datalog::database::Database;
    use recurs_datalog::eval::semi_naive;
    use recurs_datalog::parser::parse_program;
    use recurs_datalog::relation::Relation;

    /// The oracle: the semi-naive fixpoint of the program over `edges`,
    /// as a map key → answer set.
    fn oracle(edges: &[(u64, u64)]) -> HashMap<u64, BTreeSet<u64>> {
        let program = parse_program(PROGRAM).unwrap();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs(edges.iter().copied()));
        db.insert_relation("E", Relation::from_pairs(edges.iter().copied()));
        semi_naive(&mut db, &program, None).unwrap();
        let mut out: HashMap<u64, BTreeSet<u64>> = HashMap::new();
        for t in db.require("P").unwrap().iter() {
            let a: u64 = t[0].as_str().parse().unwrap();
            let b: u64 = t[1].as_str().parse().unwrap();
            out.entry(a).or_default().insert(b);
        }
        out
    }

    fn random_edges(rng: &mut Rng, n: u64, m: usize) -> Vec<(u64, u64)> {
        let mut e: Vec<(u64, u64)> = (0..m)
            .map(|_| (1 + rng.below(n), 1 + rng.below(n)))
            .collect();
        e.sort_unstable();
        e.dedup();
        e
    }

    fn assert_agrees(g: &Graph, edges: &[(u64, u64)], n: u64) {
        let want = oracle(edges);
        for k in 1..=n {
            let got = g.reachable(k);
            assert_eq!(got, want.get(&k).cloned().unwrap_or_default(), "key {k}");
        }
    }

    #[test]
    fn reachability_matches_semi_naive_on_seeded_graphs() {
        for seed in 0..12 {
            let mut rng = Rng::new(seed);
            let n = 5 + rng.below(25);
            let edges = random_edges(&mut rng, n, (2 * n) as usize);
            assert_agrees(&Graph::new(&edges), &edges, n);
        }
    }

    #[test]
    fn tracked_writes_match_semi_naive_after_each_write() {
        for seed in 100..106 {
            let mut rng = Rng::new(seed);
            let n = 20;
            let mut edges = random_edges(&mut rng, n, 40);
            let mut g = Graph::new(&edges);
            for _ in 0..6 {
                let i = rng.below(edges.len() as u64) as usize;
                let (from, to) = edges.remove(i);
                assert!(g.apply(Op::Write {
                    from,
                    to,
                    delete: true
                }));
                assert_agrees(&g, &edges, n);
                let (from, to) = (1 + rng.below(n), 1 + rng.below(n));
                if !edges.contains(&(from, to)) {
                    edges.push((from, to));
                    assert!(g.apply(Op::Write {
                        from,
                        to,
                        delete: false
                    }));
                    assert_agrees(&g, &edges, n);
                }
            }
        }
    }

    #[test]
    fn repeated_writes_are_reported_as_no_ops() {
        let mut g = Graph::new(&[(1, 2)]);
        let del = Op::Write {
            from: 1,
            to: 2,
            delete: true,
        };
        assert!(g.apply(del));
        assert!(!g.apply(del));
        assert!(g.reachable(1).is_empty());
    }
}
