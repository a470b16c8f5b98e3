//! The workloads and their seeded inputs.
//!
//! Everything the program receives is generated here from the
//! benchmark seed: the spec text for `lenet-grid`, and the job list
//! (spec texts plus client routing) for `serve-mixed`. The program never
//! sees the benchmark seed itself.

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-1-shaped LeNet grid through `run_spec`.
    LenetGrid,
    /// Mixed hot/cold LeNet sweep jobs through `swim serve`.
    ServeMixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 2] = [Workload::LenetGrid, Workload::ServeMixed];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LenetGrid => "lenet-grid",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// One sentence on why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::LenetGrid => {
                "the paper's Table 1 via run_spec: prepares per (model, sigma) block and trains \
                 in situ, so preparation reuse, device programming and RNG changes show here"
            }
            Workload::ServeMixed => {
                "the only path through HTTP, the queue, the worker pool and the prep cache: \
                 hot-prefix cache hits beside cold-prefix misses that grow the cache"
            }
        }
    }
}

/// splitmix64: the benchmark's own input generator, independent of the
/// program's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, salted so each use draws its own stream.
    pub fn new(seed: u64, salt: u64) -> SplitMix {
        SplitMix(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A spec seed: positive and small enough for any spec reader.
    pub fn spec_seed(&mut self) -> u64 {
        1 + self.next_u64() % 1_000_000_000
    }
}

fn list<T: std::fmt::Display>(items: &[T]) -> String {
    items.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ")
}

fn quoted(items: &[&str]) -> String {
    items.iter().map(|x| format!("\"{x}\"")).collect::<Vec<_>>().join(", ")
}

/// A `sweep`/`table1` spec text. Every knob the benchmark depends on is
/// spelled out: Monte Carlo threads are pinned and tuning is off.
#[allow(clippy::too_many_arguments)]
fn spec_text(
    name: &str,
    kind: &str,
    seed: u64,
    scenario: &str,
    sigmas: &[f64],
    training: (usize, usize, f32),
    methods: &[&str],
    insitu: bool,
    fractions: &[f64],
    runs: usize,
    threads: usize,
) -> String {
    let (samples, epochs, lr) = training;
    format!(
        "name = \"{name}\"\nkind = \"{kind}\"\nseed = {seed}\n\n[scenario]\n{scenario}\n\n\
         [device]\ntech = \"rram\"\nsigmas = [{}]\n\n\
         [training]\nsamples = {samples}\nepochs = {epochs}\nlr = {lr}\nbatch = 32\n\n\
         [selection]\nmethods = [{}]\ninsitu = {insitu}\n\n[sweep]\nfractions = [{}]\n\n\
         [montecarlo]\nruns = {runs}\nthreads = {threads}\neval_batch = 256\n\n\
         [tune]\nmode = \"off\"\n",
        list(sigmas),
        quoted(methods),
        list(fractions),
    )
}

const TABLE1_FRACTIONS: [f64; 7] = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0];

/// `lenet-grid`: Table 1's three sigmas, three selectors and the in-situ
/// baseline, at a reduced budget.
pub fn lenet_grid_spec(seed: u64, threads: usize) -> String {
    let spec_seed = SplitMix::new(seed, 1).spec_seed();
    spec_text(
        "lenet-grid",
        "table1",
        spec_seed,
        "model = \"lenet-mnist\"",
        &[0.1, 0.15, 0.2],
        (500, 2, 0.05),
        &["swim", "magnitude", "random"],
        true,
        &TABLE1_FRACTIONS,
        2,
        threads,
    )
}

/// One served job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index into [`JobList::specs`].
    pub spec: usize,
    /// Whether the job's prefix was primed during set-up.
    pub hot: bool,
}

/// The `serve-mixed` inputs.
#[derive(Debug, Clone)]
pub struct JobList {
    /// Distinct spec texts.
    pub specs: Vec<String>,
    /// Specs submitted during set-up, one per hot prefix.
    pub primers: Vec<usize>,
    /// Per client, its jobs in submission order.
    pub clients: Vec<Vec<Job>>,
    /// Prep-cache misses the drain must cause (one per cold prefix).
    pub expected_misses: u64,
    /// Prep-cache hits the drain must cause (every other job).
    pub expected_hits: u64,
}

impl JobList {
    /// Total jobs in the drain.
    pub fn len(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }
}

/// Jobs per cold prefix: the first misses, the rest hit.
pub const COLD_REPEATS: usize = 2;

/// Size of the `serve-mixed` job list.
#[derive(Debug, Clone, Copy)]
pub struct ServeBudget {
    /// Training budget of every served spec: (samples, epochs, lr).
    pub training: (usize, usize, f32),
    /// Jobs per hot (prefix, suffix) pair.
    pub hot_repeats: usize,
    /// Cold prefixes; each serves [`COLD_REPEATS`] jobs on one client.
    pub cold_prefixes: usize,
}

/// The benchmark's job list: 2 × 3 × 7 = 42 hot jobs and 10 × 2 = 20
/// cold ones. Training is large next to the sweep suffixes, so a miss
/// costs about three hits. Misses are 16% of the jobs, so p90 lies well
/// inside the misses instead of on the edge between hits and misses.
pub const SERVE_BUDGET: ServeBudget =
    ServeBudget { training: (200, 6, 0.05), hot_repeats: 7, cold_prefixes: 10 };

/// The sweep suffixes hot jobs vary over: (runs, fractions, methods).
fn serve_suffixes() -> [(usize, Vec<f64>, Vec<&'static str>); 3] {
    [
        (2, vec![0.0, 1.0], vec!["swim", "magnitude"]),
        (2, vec![0.1, 0.5], vec!["swim"]),
        (2, vec![0.5], vec!["magnitude", "random"]),
    ]
}

/// `serve-mixed`: two hot prefixes (primed in set-up) times three sweep
/// suffixes, plus cold prefixes that each miss once and then hit once.
/// Every job of a cold prefix goes to one client, so the hit/miss split
/// never depends on timing.
pub fn serve_job_list(seed: u64, clients: usize, threads: usize, budget: &ServeBudget) -> JobList {
    let mut rng = SplitMix::new(seed, 3);
    let serve_spec = |name: &str, seed: u64, sigma: f64, suffix: &(usize, Vec<f64>, Vec<&str>)| {
        spec_text(
            name,
            "sweep",
            seed,
            "model = \"lenet-mnist\"",
            &[sigma],
            budget.training,
            &suffix.2,
            false,
            &suffix.1,
            suffix.0,
            threads,
        )
    };
    let suffixes = serve_suffixes();
    let mut specs = Vec::new();
    let mut primers = Vec::new();
    // Hot prefix h, suffix v lives at specs[h * suffixes.len() + v].
    for (h, sigma) in [0.1, 0.15].into_iter().enumerate() {
        let prefix_seed = rng.spec_seed();
        primers.push(specs.len());
        for (v, suffix) in suffixes.iter().enumerate() {
            specs.push(serve_spec(&format!("hot-{h}-{v}"), prefix_seed, sigma, suffix));
        }
    }
    let hot_specs = specs.len();
    // Every hot spec equally often: only the order comes from the seed,
    // so every seed asks for the same work.
    let mut jobs: Vec<Job> = (0..hot_specs * budget.hot_repeats)
        .map(|i| Job { spec: i % hot_specs, hot: true })
        .collect();
    for c in 0..budget.cold_prefixes {
        // Distinct from every hot prefix and each other by construction.
        let prefix_seed = 1_000_000_001 + c as u64 + 1000 * (seed % 1_000_000);
        specs.push(serve_spec(&format!("cold-{c}"), prefix_seed, 0.1, &suffixes[0]));
        for _ in 0..COLD_REPEATS {
            jobs.push(Job { spec: specs.len() - 1, hot: false });
        }
    }
    // Seeded Fisher-Yates: interleaves cold jobs among hot ones.
    for i in (1..jobs.len()).rev() {
        let j = rng.below(i + 1);
        jobs.swap(i, j);
    }
    let total = jobs.len();
    let mut per_client: Vec<Vec<Job>> = vec![Vec::new(); clients];
    let mut next_hot_client = 0;
    for job in jobs {
        let client = if job.hot {
            next_hot_client = (next_hot_client + 1) % clients;
            next_hot_client
        } else {
            (job.spec - hot_specs) % clients
        };
        per_client[client].push(job);
    }
    let total = total as u64;
    JobList {
        specs,
        primers,
        clients: per_client,
        expected_misses: budget.cold_prefixes as u64,
        expected_hits: total - budget.cold_prefixes as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_exp::spec::ExperimentSpec;

    #[test]
    fn generated_specs_parse_and_pin_threads() {
        let spec = ExperimentSpec::parse_str(&lenet_grid_spec(7, 2)).expect("spec parses");
        spec.validate().expect("spec validates");
        assert_eq!(spec.montecarlo.threads, 2);
        assert_eq!(spec.tune.mode.as_deref(), Some("off"));
        for text in serve_job_list(7, 2, 2, &SERVE_BUDGET).specs {
            ExperimentSpec::parse_str(&text).expect("spec parses").validate().expect("validates");
        }
    }

    #[test]
    fn job_list_is_seeded_and_routes_cold_prefixes_to_one_client() {
        let a = serve_job_list(11, 2, 2, &SERVE_BUDGET);
        let b = serve_job_list(11, 2, 2, &SERVE_BUDGET);
        assert_eq!(a.specs, b.specs);
        let order = |l: &JobList| -> Vec<Vec<usize>> {
            l.clients.iter().map(|c| c.iter().map(|j| j.spec).collect()).collect()
        };
        assert_eq!(order(&a), order(&b));
        assert_ne!(order(&a), order(&serve_job_list(12, 2, 2, &SERVE_BUDGET)));
        assert_eq!(a.len(), 62);
        assert_eq!((a.expected_hits, a.expected_misses), (52, 10));
        for spec in 6..a.specs.len() {
            let owners: Vec<usize> =
                (0..2).filter(|&c| a.clients[c].iter().any(|j| j.spec == spec)).collect();
            assert_eq!(owners.len(), 1, "cold spec {spec} spread over clients {owners:?}");
        }
        let hot = a.clients.iter().flatten().filter(|j| j.hot).count();
        assert_eq!(hot, 42);
    }
}
