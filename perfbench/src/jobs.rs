//! The iterative jobs the workloads submit, and their oracles.

use std::time::Instant;

use cgraph_algos::{reference, Bfs, PageRank, Sssp, Wcc};
use cgraph_core::{Engine, JobId, ResumeSubmit};
use cgraph_graph::{Csr, EdgeList, VertexId};
use rand::rngs::StdRng;
use rand::Rng;

/// One job kind with its source vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Job {
    /// PageRank with the default damping and epsilon (all vertices active).
    PageRank,
    /// Single-source shortest paths.
    Sssp(VertexId),
    /// Breadth-first levels.
    Bfs(VertexId),
    /// Weakly connected components.
    Wcc,
}

/// A job's expected result, from `cgraph_algos::reference`.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    /// PageRank values (compared within tolerance).
    Ranks(Vec<f64>),
    /// SSSP distances.
    Dists(Vec<f32>),
    /// BFS levels or WCC labels.
    Labels(Vec<u32>),
}

impl Job {
    /// Submits the job bound to the newest snapshot.
    pub fn submit(self, engine: &mut Engine) -> JobId {
        match self {
            Job::PageRank => engine.submit(PageRank::default()),
            Job::Sssp(s) => engine.submit(Sssp::new(s)),
            Job::Bfs(s) => engine.submit(Bfs::new(s)),
            Job::Wcc => engine.submit(Wcc),
        }
    }

    /// Submits the job bound at `ts`.
    pub fn submit_at(self, engine: &mut Engine, ts: u64) -> JobId {
        match self {
            Job::PageRank => engine.submit_at(PageRank::default(), ts),
            Job::Sssp(s) => engine.submit_at(Sssp::new(s), ts),
            Job::Bfs(s) => engine.submit_at(Bfs::new(s), ts),
            Job::Wcc => engine.submit_at(Wcc, ts),
        }
    }

    /// Submits the job bound at `ts`, resuming from `prior` (converged at
    /// `prior_ts`) where the delta range allows.  PageRank is not
    /// monotone and has no resume path.
    pub fn submit_resumed_at(
        self,
        engine: &mut Engine,
        ts: u64,
        prior_ts: u64,
        prior: &Expected,
    ) -> ResumeSubmit {
        match (self, prior) {
            (Job::Sssp(s), Expected::Dists(p)) => {
                engine.submit_resumed_at(Sssp::new(s), ts, prior_ts, p)
            }
            (Job::Bfs(s), Expected::Labels(p)) => {
                engine.submit_resumed_at(Bfs::new(s), ts, prior_ts, p)
            }
            (Job::Wcc, Expected::Labels(p)) => engine.submit_resumed_at(Wcc, ts, prior_ts, p),
            _ => panic!("{self:?} cannot resume from this prior"),
        }
    }

    /// The job's results, or `None` if the engine has none of this type.
    pub fn results(self, engine: &Engine, id: JobId) -> Option<Expected> {
        match self {
            Job::PageRank => engine.results::<PageRank>(id).map(Expected::Ranks),
            Job::Sssp(_) => engine.results::<Sssp>(id).map(Expected::Dists),
            Job::Bfs(_) => engine.results::<Bfs>(id).map(Expected::Labels),
            Job::Wcc => engine.results::<Wcc>(id).map(Expected::Labels),
        }
    }

    /// The single-threaded reference result on `edges`.
    pub fn reference(self, edges: &EdgeList, csr: &Csr) -> Expected {
        match self {
            Job::PageRank => Expected::Ranks(reference::pagerank(csr, 0.85, 1e-9, 100_000)),
            Job::Sssp(s) => Expected::Dists(reference::sssp(csr, s)),
            Job::Bfs(s) => Expected::Labels(reference::bfs(csr, s)),
            Job::Wcc => Expected::Labels(reference::wcc(edges)),
        }
    }
}

/// Whether `got` matches the reference `want`: exact for BFS and WCC,
/// within the stopping bound for PageRank, and within the workspace's
/// cross-engine tolerance for SSSP (absolute 1e-3: f32 path sums added
/// in another order).
pub fn matches_reference(got: &Expected, want: &Expected) -> bool {
    match (got, want) {
        (Expected::Ranks(g), Expected::Ranks(w)) => {
            // Delta-PageRank stops once every residual is at most
            // epsilon; (I - d·Pᵀ)⁻¹ has L1 norm at most 1/(1-d), so the
            // stopped values are within n·epsilon/(1-d) of the fixpoint
            // in L1 (the reference runs to 1e-9).
            let pr = PageRank::default();
            let bound = g.len() as f64 * pr.epsilon / (1.0 - pr.damping);
            g.len() == w.len() && g.iter().zip(w).map(|(a, b)| (a - b).abs()).sum::<f64>() <= bound
        }
        (Expected::Dists(g), Expected::Dists(w)) => {
            g.len() == w.len()
                && g.iter()
                    .zip(w)
                    .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3)
        }
        (Expected::Labels(g), Expected::Labels(w)) => g == w,
        _ => false,
    }
}

/// Whether two resumable results are equal bit for bit (resumed vs from
/// scratch; PageRank never resumes).
pub fn bit_identical(a: &Expected, b: &Expected) -> bool {
    match (a, b) {
        (Expected::Dists(x), Expected::Dists(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Expected::Labels(x), Expected::Labels(y)) => x == y,
        _ => false,
    }
}

/// Reads a job's results, timing the call in ms.
pub fn timed_results(job: Job, engine: &Engine, id: JobId) -> (Option<Expected>, f64) {
    let t = Instant::now();
    let got = job.results(engine, id);
    (got, t.elapsed().as_secs_f64() * 1e3)
}

/// `k` seeded source vertices, drawn from the vertices whose out-degree
/// is at least the mean, so traversals reach a large part of the graph.
pub fn sources(edges: &EdgeList, rng: &mut StdRng, k: usize) -> Vec<VertexId> {
    let deg = edges.out_degrees();
    let mean = edges.len() as f64 / edges.num_vertices().max(1) as f64;
    let pool: Vec<VertexId> = (0..edges.num_vertices())
        .filter(|&v| deg[v as usize] as f64 >= mean)
        .collect();
    assert!(
        !pool.is_empty(),
        "a non-empty graph has a vertex at or above its mean degree"
    );
    (0..k).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
}
