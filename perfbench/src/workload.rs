//! The workloads: which graph, which I/O model, which engine the planner
//! must choose, and how a run's time splits between computing SCCs and
//! serving the resulting index. `README.md` says why each one exists.

use std::io;

use contract_expand::prelude::*;

/// The generated input graph.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// `gen::web_like(nodes, avg_degree, seed)`: a bow-tie web graph.
    Web { nodes: u32, avg_degree: f64 },
    /// `gen::random_gnm(nodes, edges, seed)`: uniform random edges.
    Gnm { nodes: u32, edges: u64 },
}

impl Family {
    pub fn generate(self, env: &DiskEnv, seed: u64) -> io::Result<EdgeListGraph> {
        match self {
            Family::Web { nodes, avg_degree } => gen::web_like(env, nodes, avg_degree, seed),
            Family::Gnm { nodes, edges } => gen::random_gnm(env, nodes, edges, seed),
        }
    }
}

/// How the timed SCC computation is invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compute {
    /// `ExtScc::run` with Ext-SCC-Op's configuration (the planner must pick
    /// Ext-SCC-Op); the serve phase then indexes the first run's labels.
    Contract,
    /// `SccSession::build_index` with the condensation DAG (the planner
    /// must pick Semi-SCC): the build an indexing service repeats. The
    /// serve phase maintains the first build's artifact.
    BuildIndex,
}

/// Worker threads of the parallel sort/contraction paths, on every
/// workload: the CPU count of the recording host.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub family: Family,
    /// Memory budget `M` in bytes.
    pub mem: usize,
    /// Block size `B` in bytes.
    pub block: usize,
    pub compute: Compute,
    /// Share of `--seconds` spent in the serve-with-updates phase.
    pub serve_share: f64,
}

impl Spec {
    pub fn io_config(&self) -> IoConfig {
        IoConfig::new(self.block, self.mem)
    }

    /// The CLI's default pooled environment (`M / B` frames).
    pub fn env_options(&self) -> EnvOptions {
        EnvOptions::pooled(&self.io_config()).with_threads(THREADS)
    }

    pub fn expected_engine(&self) -> Engine {
        match self.compute {
            Compute::Contract => Engine::ExtSccOp,
            Compute::BuildIndex => Engine::SemiScc,
        }
    }
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "web-contract",
        family: Family::Web {
            nodes: 200_000,
            avg_degree: 8.0,
        },
        mem: 1 << 20,
        block: 64 << 10,
        compute: Compute::Contract,
        serve_share: 0.5,
    },
    Spec {
        name: "gnm-blowup",
        family: Family::Gnm {
            nodes: 50_000,
            edges: 200_000,
        },
        mem: 256 << 10,
        block: 4 << 10,
        compute: Compute::Contract,
        serve_share: 0.5,
    },
    Spec {
        name: "index-serve",
        family: Family::Web {
            nodes: 20_000,
            avg_degree: 8.0,
        },
        mem: 1 << 20,
        block: 4 << 10,
        compute: Compute::BuildIndex,
        serve_share: 0.8,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
