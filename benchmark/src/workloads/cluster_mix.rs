//! `cluster_mix`: `ClusterMux` over four nodes, the client homed on node
//! 0. The only workload where cluster routing, RPC pricing and the link
//! ledgers do work; node-side Mux is the code `read_hot` and `write_small`
//! measure, so a Mux gain shows here diluted and an RPC gain only here.
//!
//! 64 files of 1 MiB = 16 384 blocks spread over four 128 MiB PM nodes,
//! about three quarters of them owned by a remote node.

use std::sync::Arc;

use tvfs::ROOT_INO;

use super::{measured_ops, preload, Target, Workload};
use crate::harness::Client;
use crate::oracle::{Rng, BLOCK};
use crate::span::Tracer;
use crate::stack::{cluster_stack, native_stack, TierKind};

const NODES: usize = 4;
const FILES: u32 = 64;
const FILE_BYTES: u64 = 1 << 20;
const NODE_PM_BYTES: u64 = 128 << 20;
const READ_FRAC: f64 = 0.80;
/// Measured ops of the issue's single pass; see [`measured_ops`].
const OPS: u32 = 400_000;

pub struct ClusterMix {
    client: Client,
    rng: Rng,
    /// Whether each file lives on a node other than the client's.
    remote: Vec<bool>,
    shrink: u32,
}

impl ClusterMix {
    pub fn build(seed: u64, target: Target, tracer: Option<Arc<Tracer>>, shrink: u32) -> Self {
        let stack = match target {
            Target::Mux => cluster_stack(NODES, NODE_PM_BYTES, tracer.as_ref()),
            // The twin is one bare novafs holding all 64 files.
            Target::Native => native_stack(TierKind::Nova, NODE_PM_BYTES, false),
        };
        cluster::set_thread_home(0);
        let mut client = Client::new(stack, FILES as usize, tracer);
        preload(&mut client, ROOT_INO, FILES, FILE_BYTES);
        let remote = client
            .inos
            .iter()
            .map(|&ino| match &client.stack.cluster {
                Some(c) => c.owner_of(ino) != Some(0),
                None => false,
            })
            .collect();
        ClusterMix {
            client,
            rng: Rng::new(seed),
            remote,
            shrink,
        }
    }
}

impl Workload for ClusterMix {
    fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    fn measured(&mut self) {
        for _ in 0..measured_ops(OPS, self.shrink) {
            let file = self.rng.below(u64::from(FILES)) as u32;
            let off = self.rng.below(FILE_BYTES / BLOCK) * BLOCK;
            self.client.rec.remote = self.remote[file as usize];
            if self.rng.unit() < READ_FRAC {
                self.client.read(file, off, BLOCK as usize);
            } else {
                self.client.write(file, off, BLOCK as usize);
            }
        }
        self.client.rec.remote = false;
    }
}
