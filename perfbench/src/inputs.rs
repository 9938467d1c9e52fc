//! Seeded inputs: the graph, the dataset text the program parses, and the
//! exact operation sequence of each workload.
//!
//! Everything here is a pure function of `(workload, seed, seconds)`, so a
//! traced run replays precisely the operations an untraced run measured.

use std::fmt::Write as _;

/// The transitive-closure program (class A1): `P = E ∘ A*`. Both EDB
/// relations hold the same edges, so `P(k, y)` holds iff `y` is reachable
/// from `k` by a path of length at least one.
pub const PROGRAM: &str = "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).\n";

/// SplitMix64: a small, fully specified generator, so the inputs depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The three workloads; each keeps to one read path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdReads,
    HotReads,
    ReadWrite,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_reads" => Some(Workload::ColdReads),
            "hot_reads" => Some(Workload::HotReads),
            "read_write" => Some(Workload::ReadWrite),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdReads => "cold_reads",
            Workload::HotReads => "hot_reads",
            Workload::ReadWrite => "read_write",
        }
    }
}

/// One protocol operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The bound point read `P(key, y)`.
    Read(u64),
    /// One atomic write group on edge `(from, to)`: `-A -E` when `delete`,
    /// `+A +E` otherwise, so the edge leaves or rejoins the graph whole.
    Write { from: u64, to: u64, delete: bool },
}

impl Op {
    /// The serve-protocol line for this operation.
    pub fn line(self) -> String {
        match self {
            Op::Read(k) => format!("?- P({k}, y)."),
            Op::Write { from, to, delete } => {
                let s = if delete { '-' } else { '+' };
                format!("{s}A({from}, {to}) {s}E({from}, {to}).")
            }
        }
    }

    pub fn is_read(self) -> bool {
        matches!(self, Op::Read(_))
    }
}

/// Delete an edge, then restore it: the database ends as it began.
fn write_pair((from, to): (u64, u64)) -> [Op; 2] {
    [
        Op::Write {
            from,
            to,
            delete: true,
        },
        Op::Write {
            from,
            to,
            delete: false,
        },
    ]
}

/// Fixed operation counts per second of `--seconds`, calibrated so a run
/// measures for about that long on a 2-CPU host. Runs never stop on a
/// clock: the counts are fixed before the run starts.
const COLD_READS_PER_S: f64 = 10.0;
const HOT_READS_PER_S: f64 = 1500.0;
/// `read_write` rounds: a write pair and two reads.
const RW_ROUNDS_PER_S: f64 = 4.0;
/// The timed write pairs that end `cold_reads` and `hot_reads`.
const WRITE_PAIRS_PER_S: f64 = 3.5;
/// The hot key set of `hot_reads`.
const HOT_KEYS: usize = 16;
/// The tree of `cold_reads`. Its edges are generated child by child, so
/// edges from index `TREE_LEAF_EDGES` on lead into leaves.
const TREE_NODES: u64 = 30_000;
const TREE_ARITY: u64 = 3;
const TREE_LEAF_EDGES: usize = ((TREE_NODES - 2) / TREE_ARITY) as usize;
/// The layered graph of `hot_reads` and `read_write`: a key in layer `l`
/// answers 399 (`l = 0`) down to 3 (`l = 14`) tuples; the closure holds
/// 94,960.
const LAYERS: u64 = 16;
const WIDTH: u64 = 40;
const OFFSETS: [u64; 3] = [0, 1, 4];

/// A workload's inputs and its full operation sequence.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Edges of the generated graph (EDB `A` and `E` both hold them).
    pub edges: Vec<(u64, u64)>,
    /// The dataset text the program receives, as `recurs serve --listen
    /// file.dl` would read it.
    pub text: String,
    /// Warm-up inside set-up: a first read that builds the lazy magic plan
    /// (`cold_reads`), one read per hot key (`hot_reads`), or the first
    /// write pair, which builds the materialized view (`read_write`).
    pub warmup: Vec<Op>,
    /// The measured phase: one closed-loop sequence on one connection.
    pub measured: Vec<Op>,
    /// `cold_reads`/`hot_reads` only, sent to a twin service: an untimed
    /// write pair that builds its view, then the timed write pairs, one
    /// after each slice of the measured reads. Empty for `read_write`,
    /// whose writes are in the measured phase.
    pub view_warmup: Vec<Op>,
    pub write_phase: Vec<Op>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let mut rng = Rng::new(seed.wrapping_mul(3).wrapping_add(workload as u64));
        let secs = seconds.max(1) as f64;
        let pairs = (WRITE_PAIRS_PER_S * secs).round() as usize;
        let edges = match workload {
            Workload::ColdReads => relabeled_tree(TREE_NODES, TREE_ARITY, &mut rng),
            Workload::HotReads | Workload::ReadWrite => {
                circulant_layers(LAYERS, WIDTH, &OFFSETS, &mut rng)
            }
        };
        // Write pair `j` deletes and restores an edge leaving layer
        // `j mod (LAYERS - 1)` of the layered graph, so every run covers the
        // same mix of shallow and deep deletions; on the tree, an edge into
        // a leaf, so every write changes the same number of closure tuples.
        let edge_for = |j: usize, rng: &mut Rng| -> (u64, u64) {
            let candidates: Vec<(u64, u64)> = match workload {
                Workload::ColdReads => edges[TREE_LEAF_EDGES..].to_vec(),
                _ => {
                    let layer = j as u64 % (LAYERS - 1);
                    let in_layer = |&(from, _): &(u64, u64)| (from - 1) / WIDTH == layer;
                    edges.iter().copied().filter(in_layer).collect()
                }
            };
            candidates[rng.below(candidates.len() as u64) as usize]
        };
        let (warmup, measured) = match workload {
            Workload::ColdReads => {
                // Distinct internal keys: every read misses the cache and
                // has a non-empty answer.
                let mut keys = sources(&edges);
                rng.shuffle(&mut keys);
                let n = (COLD_READS_PER_S * secs).round() as usize;
                let warm = Op::Read(keys[0]);
                let reads = keys[1..=n.min(keys.len() - 1)].iter().map(|&k| Op::Read(k));
                (vec![warm], reads.collect())
            }
            Workload::HotReads => {
                // Four keys from each of layers 2-5: 200 to 319 answers.
                let keys: Vec<u64> = (2..6)
                    .flat_map(|l| {
                        layer_vertices(l, WIDTH, &mut rng)
                            .into_iter()
                            .take(HOT_KEYS / 4)
                    })
                    .collect();
                let n = (HOT_READS_PER_S * secs).round() as usize;
                let measured = (0..n)
                    .map(|_| Op::Read(keys[rng.below(keys.len() as u64) as usize]))
                    .collect();
                (keys.iter().map(|&k| Op::Read(k)).collect(), measured)
            }
            Workload::ReadWrite => {
                // Each read binds a key not read before, so the view (not
                // the cache, whose entries writes advance) answers it. Read
                // `r` takes a fresh vertex of layer `r mod (LAYERS - 1)`.
                let mut fresh: Vec<Vec<u64>> = (0..LAYERS - 1)
                    .map(|l| layer_vertices(l, WIDTH, &mut rng))
                    .collect();
                let max_rounds = ((LAYERS - 1) * WIDTH / 2) as usize;
                let rounds = ((RW_ROUNDS_PER_S * secs).round() as usize).min(max_rounds);
                let mut key_for = |r: usize| {
                    fresh[r % (LAYERS as usize - 1)]
                        .pop()
                        .expect("at most WIDTH reads per layer")
                };
                let warm = write_pair(edge_for(LAYERS as usize / 2, &mut rng));
                let mut ops = Vec::with_capacity(4 * rounds);
                for r in 0..rounds {
                    let [del, add] = write_pair(edge_for(r, &mut rng));
                    ops.extend([
                        del,
                        Op::Read(key_for(2 * r)),
                        add,
                        Op::Read(key_for(2 * r + 1)),
                    ]);
                }
                (warm.to_vec(), ops)
            }
        };
        let (view_warmup, write_phase) = match workload {
            Workload::ReadWrite => (Vec::new(), Vec::new()),
            _ => {
                let warm = write_pair(edge_for(LAYERS as usize / 2, &mut rng)).to_vec();
                let phase = (0..pairs)
                    .flat_map(|j| write_pair(edge_for(j, &mut rng)))
                    .collect();
                (warm, phase)
            }
        };
        let text = dataset_text(workload, seed, &edges);
        Inputs {
            workload,
            seed,
            edges,
            text,
            warmup,
            measured,
            view_warmup,
            write_phase,
        }
    }
}

/// Distinct vertices with at least one out-edge, in ascending order.
fn sources(edges: &[(u64, u64)]) -> Vec<u64> {
    let mut v: Vec<u64> = edges.iter().map(|&(a, _)| a).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// A complete `b`-ary tree on `n` vertices (the shape of
/// `recurs_workload::graphs::tree`) under a seeded relabeling, so the seed
/// moves labels and hashing while the work per key keeps its distribution.
fn relabeled_tree(n: u64, b: u64, rng: &mut Rng) -> Vec<(u64, u64)> {
    let mut label: Vec<u64> = (1..=n).collect();
    rng.shuffle(&mut label);
    (2..=n)
        .map(|child| {
            let parent = (child - 2) / b + 1;
            (label[parent as usize - 1], label[child as usize - 1])
        })
        .collect()
}

/// `layers` layers of `width` vertices; vertex `i` of layer `l` has an edge
/// to vertex `(i + o) mod width` of layer `l + 1` for each offset `o`, under
/// a seeded relabeling inside each layer. Vertex ids: layer `l` holds
/// `l·width + 1 ..= (l+1)·width`. Every vertex of a layer is equivalent, so
/// the work a key or an edge causes depends only on its layer, and the seed
/// moves labels, hashing and the choice of keys and edges.
fn circulant_layers(layers: u64, width: u64, offsets: &[u64], rng: &mut Rng) -> Vec<(u64, u64)> {
    let labels: Vec<Vec<u64>> = (0..layers).map(|l| layer_vertices(l, width, rng)).collect();
    let mut edges = Vec::new();
    for l in 0..layers as usize - 1 {
        for i in 0..width {
            for o in offsets {
                edges.push((
                    labels[l][i as usize],
                    labels[l + 1][((i + o) % width) as usize],
                ));
            }
        }
    }
    edges
}

/// The vertices of layer `l`, in seeded order.
fn layer_vertices(l: u64, width: u64, rng: &mut Rng) -> Vec<u64> {
    let mut v: Vec<u64> = (l * width + 1..=(l + 1) * width).collect();
    rng.shuffle(&mut v);
    v
}

fn dataset_text(workload: Workload, seed: u64, edges: &[(u64, u64)]) -> String {
    let mut text = format!("% perfbench {} seed {seed}\n{PROGRAM}", workload.name());
    for &(a, b) in edges {
        let _ = writeln!(text, "A({a}, {b}). E({a}, {b}).");
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in [Workload::ColdReads, Workload::HotReads, Workload::ReadWrite] {
            let a = Inputs::generate(w, 7, 2);
            let b = Inputs::generate(w, 7, 2);
            let c = Inputs::generate(w, 8, 2);
            assert_eq!(a.text, b.text);
            assert_eq!(a.measured, b.measured);
            assert_eq!(a.write_phase, b.write_phase);
            assert_ne!(a.measured, c.measured, "{w:?}");
        }
    }

    #[test]
    fn cold_keys_are_distinct_and_read_write_keys_are_never_reread() {
        for w in [Workload::ColdReads, Workload::ReadWrite] {
            let inputs = Inputs::generate(w, 3, 10);
            let mut keys: Vec<u64> = inputs
                .warmup
                .iter()
                .chain(&inputs.measured)
                .filter_map(|op| match op {
                    Op::Read(k) => Some(*k),
                    Op::Write { .. } => None,
                })
                .collect();
            let n = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), n, "{w:?}");
        }
    }

    #[test]
    fn tree_writes_touch_leaf_edges_only() {
        let inputs = Inputs::generate(Workload::ColdReads, 9, 4);
        let parents: std::collections::HashSet<u64> = inputs.edges.iter().map(|e| e.0).collect();
        let leaf_edges = inputs.edges.len() - TREE_LEAF_EDGES;
        assert_eq!(leaf_edges as u64, TREE_NODES - parents.len() as u64);
        for op in inputs.write_phase.iter().chain(&inputs.view_warmup) {
            let Op::Write { to, .. } = op else {
                panic!("reads in the write phase")
            };
            assert!(!parents.contains(to), "{op:?} leads to an internal vertex");
        }
    }

    #[test]
    fn write_groups_come_in_restoring_pairs() {
        let inputs = Inputs::generate(Workload::ReadWrite, 5, 4);
        let writes: Vec<Op> = inputs
            .measured
            .iter()
            .copied()
            .filter(|op| !op.is_read())
            .collect();
        for pair in writes.chunks(2) {
            match pair {
                [Op::Write {
                    from,
                    to,
                    delete: true,
                }, Op::Write {
                    from: f2,
                    to: t2,
                    delete: false,
                }] => {
                    assert_eq!((from, to), (f2, t2));
                    assert!(inputs.edges.contains(&(*from, *to)));
                }
                other => panic!("not a delete/restore pair: {other:?}"),
            }
        }
    }

    #[test]
    fn lines_are_protocol_requests() {
        assert_eq!(Op::Read(4).line(), "?- P(4, y).");
        let w = Op::Write {
            from: 1,
            to: 2,
            delete: true,
        };
        assert_eq!(w.line(), "-A(1, 2) -E(1, 2).");
    }
}
