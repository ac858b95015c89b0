//! `sim-mpi` — an MPI-like message-passing runtime over the cluster
//! simulator.
//!
//! Workloads compile to per-rank op *sources* ([`JobSpec`]); [`run_job`]
//! executes them on a [`sim_platform::ClusterSpec`] with eager/rendezvous
//! point-to-point semantics, analytic collective algorithms and per-node NIC
//! contention, emitting IPM-style profile events along the way. Op sources
//! are lazy by default ([`Program`] generators pulled one op at a time);
//! materialized `Vec<Op>` programs remain available through
//! [`JobSpec::from_programs`] for tests and validation fixtures.
//!
//! ```
//! use sim_mpi::{run_job, JobSpec, Op, CollOp, SimConfig, NullSink};
//! use sim_platform::presets;
//!
//! // Two ranks: a ping and an allreduce.
//! let mut job = JobSpec::from_programs(
//!     "demo",
//!     vec![
//!         vec![
//!             Op::Compute { flops: 1e6, bytes: 0.0 },
//!             Op::Send { to: 1, bytes: 1024, tag: 0 },
//!             Op::Coll(CollOp::Allreduce { bytes: 8 }),
//!         ],
//!         vec![
//!             Op::Recv { from: 0, bytes: 1024, tag: 0 },
//!             Op::Coll(CollOp::Allreduce { bytes: 8 }),
//!         ],
//!     ],
//!     vec![],
//! );
//! let result = run_job(&mut job, &presets::vayu(), &SimConfig::default(), &mut NullSink).unwrap();
//! assert!(result.elapsed_secs() > 0.0);
//! ```

pub mod channels;
pub mod collectives;
pub mod engine;
pub mod op;
pub mod prof;
pub mod result;

pub use collectives::{ceil_log2, CollTopo};
pub use engine::{run_job, Background, SimConfig, SimError};
pub use op::{
    BlockProgram, CollOp, CyclicProgram, Group, JobMeta, JobSpec, Op, OpSource, Program, Rank,
    ReqId, SectionId, Tag,
};
pub use prof::{IoKind, MpiKind, NullSink, ProfEvent, ProfSink};
pub use result::{RankTotals, SimResult};

#[cfg(test)]
mod tests {
    use super::*;
    use sim_platform::presets;

    fn run(mut job: JobSpec, cluster: &sim_platform::ClusterSpec) -> SimResult {
        run_job(&mut job, cluster, &SimConfig::default(), &mut NullSink).unwrap()
    }

    fn job(programs: Vec<Vec<Op>>) -> JobSpec {
        JobSpec::from_programs("t", programs, vec!["s0"])
    }

    #[test]
    fn lone_compute_takes_roofline_time() {
        let v = presets::vayu();
        let r = run(
            job(vec![vec![Op::Compute {
                flops: 2.4905e9,
                bytes: 0.0,
            }]]),
            &v,
        );
        // X5570 @ 2.93 GHz * 0.85 flops/cycle = 2.4905e9 flops/s -> ~1 s.
        assert!(
            (r.elapsed_secs() - 1.0).abs() < 0.02,
            "{}",
            r.elapsed_secs()
        );
        assert!(r.ranks[0].comp.as_secs_f64() > 0.99);
        assert_eq!(r.ranks[0].comm, sim_des::SimDur::ZERO);
    }

    #[test]
    fn ping_pong_round_trip_on_two_nodes() {
        let v = presets::vayu();
        // Force two nodes by using 9 ranks; ranks 0 and 8 are on different
        // nodes. Only they exchange.
        let mut progs = vec![vec![]; 9];
        progs[0] = vec![
            Op::Send {
                to: 8,
                bytes: 8,
                tag: 1,
            },
            Op::Recv {
                from: 8,
                bytes: 8,
                tag: 2,
            },
        ];
        progs[8] = vec![
            Op::Recv {
                from: 0,
                bytes: 8,
                tag: 1,
            },
            Op::Send {
                to: 0,
                bytes: 8,
                tag: 2,
            },
        ];
        let r = run(job(progs), &v);
        let rtt = r.elapsed_secs() * 1e6;
        // Two one-way IB messages: ~4-8 us.
        assert!((3.0..12.0).contains(&rtt), "rtt {rtt} us");
    }

    #[test]
    fn eager_send_does_not_block_sender() {
        let v = presets::vayu();
        // Rank 0 sends then computes; rank 1 computes a long time then
        // receives. Sender must finish long before receiver.
        let r = run(
            job(vec![
                vec![Op::Send {
                    to: 1,
                    bytes: 64,
                    tag: 0,
                }],
                vec![
                    Op::Compute {
                        flops: 2.5e9,
                        bytes: 0.0,
                    },
                    Op::Recv {
                        from: 0,
                        bytes: 64,
                        tag: 0,
                    },
                ],
            ]),
            &v,
        );
        assert!(r.ranks[0].wall.as_secs_f64() < 0.01);
        assert!(r.ranks[1].wall.as_secs_f64() > 0.9);
    }

    #[test]
    fn rendezvous_adds_handshake_latency_not_sender_blocking() {
        let v = presets::vayu();
        let below = v.topology.intra.eager_threshold; // intra-node message
        let above = below + 1;
        let mk = |bytes: usize| {
            job(vec![
                vec![Op::Send {
                    to: 1,
                    bytes,
                    tag: 0,
                }],
                vec![Op::Recv {
                    from: 0,
                    bytes,
                    tag: 0,
                }],
            ])
        };
        let t_eager = run(mk(below), &v).elapsed_secs();
        let t_rndv = run(mk(above), &v).elapsed_secs();
        // The protocol switch costs roughly the handshake overhead…
        let delta = t_rndv - t_eager;
        assert!(
            delta > v.topology.intra.rendezvous_overhead * 0.9,
            "delta {delta}"
        );
        // …but the sender still proceeds immediately (pipelining preserved).
        let r = run(mk(above), &v);
        assert!(r.ranks[0].wall.as_secs_f64() < r.ranks[1].wall.as_secs_f64());
    }

    #[test]
    fn fifo_matching_per_channel() {
        let v = presets::vayu();
        // Two eager sends on the same channel; receiver posts two recvs.
        // FIFO means both match and the run completes.
        let r = run(
            job(vec![
                vec![
                    Op::Send {
                        to: 1,
                        bytes: 16,
                        tag: 5,
                    },
                    Op::Send {
                        to: 1,
                        bytes: 32,
                        tag: 5,
                    },
                ],
                vec![
                    Op::Recv {
                        from: 0,
                        bytes: 16,
                        tag: 5,
                    },
                    Op::Recv {
                        from: 0,
                        bytes: 32,
                        tag: 5,
                    },
                ],
            ]),
            &v,
        );
        assert!(r.elapsed_secs() > 0.0);
    }

    #[test]
    fn exchange_synchronizes_both_ranks() {
        let v = presets::vayu();
        let r = run(
            job(vec![
                vec![
                    Op::Compute {
                        flops: 2.5e9,
                        bytes: 0.0,
                    },
                    Op::Exchange {
                        partner: 1,
                        send_bytes: 1024,
                        recv_bytes: 1024,
                        tag: 0,
                    },
                ],
                vec![Op::Exchange {
                    partner: 0,
                    send_bytes: 1024,
                    recv_bytes: 1024,
                    tag: 0,
                }],
            ]),
            &v,
        );
        // Rank 1 waits ~1 s inside the exchange.
        assert!(r.ranks[1].comm.as_secs_f64() > 0.9);
        // Both finish at the same time.
        assert_eq!(r.ranks[0].wall, r.ranks[1].wall);
    }

    #[test]
    fn collective_releases_all_at_max_entry_plus_cost() {
        let v = presets::vayu();
        let mut progs = vec![vec![Op::Coll(CollOp::Barrier)]; 4];
        progs[2].insert(
            0,
            Op::Compute {
                flops: 2.5e9,
                bytes: 0.0,
            },
        );
        let r = run(job(progs), &v);
        // All ranks end together, just after the slow rank's compute.
        let walls: Vec<f64> = r.ranks.iter().map(|t| t.wall.as_secs_f64()).collect();
        assert!(walls.iter().all(|w| (*w - walls[0]).abs() < 1e-9));
        assert!(walls[0] > 0.99 && walls[0] < 1.1);
        // Fast ranks accumulated ~1 s of comm (waiting in the barrier).
        assert!(r.ranks[0].comm.as_secs_f64() > 0.9);
        assert!(r.ranks[2].comm.as_secs_f64() < 0.01);
    }

    #[test]
    fn deadlock_detected() {
        let v = presets::vayu();
        let mut j = JobSpec::from_programs(
            "deadlock",
            vec![
                vec![Op::Recv {
                    from: 1,
                    bytes: 8,
                    tag: 0,
                }],
                vec![Op::Recv {
                    from: 0,
                    bytes: 8,
                    tag: 0,
                }],
            ],
            vec![],
        );
        // Validation rejects it first…
        assert!(matches!(
            run_job(&mut j, &v, &SimConfig::default(), &mut NullSink),
            Err(SimError::Validation(_))
        ));
        // …and with validation off the engine reports the deadlock.
        let cfg = SimConfig {
            validate: false,
            ..Default::default()
        };
        assert!(matches!(
            run_job(&mut j, &v, &cfg, &mut NullSink),
            Err(SimError::Deadlock(_))
        ));
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let d = presets::dcc();
        // 16 ranks on DCC span two nodes; the vSwitch jitter fires on ~30%
        // of the inter-node allreduce rounds, so seeds are observable.
        let mk = || job(vec![vec![Op::Coll(CollOp::Allreduce { bytes: 4 }); 50]; 16]);
        let a = run(mk(), &d);
        let b = run(mk(), &d);
        assert_eq!(a.elapsed, b.elapsed);
        // Different seed => (almost surely) different jitter.
        let cfg = SimConfig {
            seed: 99,
            ..Default::default()
        };
        let c = run_job(&mut mk(), &d, &cfg, &mut NullSink).unwrap();
        assert_ne!(a.elapsed, c.elapsed);
    }

    #[test]
    fn dcc_allreduce_costs_more_than_vayu_across_nodes() {
        let mk = |np: usize| {
            job(vec![
                vec![Op::Coll(CollOp::Allreduce { bytes: 4 }); 100];
                np
            ])
        };
        // 16 ranks = 2 nodes on both platforms.
        let v = run(mk(16), &presets::vayu());
        let d = run(mk(16), &presets::dcc());
        assert!(
            d.elapsed_secs() > v.elapsed_secs() * 10.0,
            "DCC {} vs Vayu {}",
            d.elapsed_secs(),
            v.elapsed_secs()
        );
    }

    #[test]
    fn io_charged_to_io_ledger() {
        let v = presets::vayu();
        let r = run(
            job(vec![vec![Op::FileRead {
                bytes: 1_600_000_000,
            }]]),
            &v,
        );
        assert!((4.0..6.0).contains(&r.ranks[0].io.as_secs_f64()));
        assert_eq!(r.ranks[0].comm, sim_des::SimDur::ZERO);
    }

    #[test]
    fn section_markers_are_free() {
        let v = presets::vayu();
        let r = run(
            job(vec![vec![
                Op::SectionEnter(0),
                Op::Compute {
                    flops: 1e6,
                    bytes: 0.0,
                },
                Op::SectionExit(0),
            ]]),
            &v,
        );
        let t = r.ranks[0];
        assert_eq!(t.other(), sim_des::SimDur::ZERO);
    }

    #[test]
    fn nic_serializes_concurrent_inter_node_sends() {
        let v = presets::vayu();
        // 9 ranks: ranks 0..8 on node 0, rank 8 on node 1. All of node 0's
        // ranks send 4 KB to rank 8 "simultaneously" — the shared NIC must
        // serialize them, so elapsed >> one isolated transfer.
        let mut progs: Vec<Vec<Op>> = (0..8)
            .map(|_| {
                vec![Op::Send {
                    to: 8,
                    bytes: 8192,
                    tag: 0,
                }]
            })
            .collect();
        progs.push(
            (0..8)
                .map(|s| Op::Recv {
                    from: s,
                    bytes: 8192,
                    tag: 0,
                })
                .collect(),
        );
        let r = run(job(progs), &v);
        let wire = sim_net::wire_time(&v.topology.inter, 8192);
        assert!(
            r.elapsed_secs() > wire * 8.0,
            "8 serialized sends {} vs 8x wire {}",
            r.elapsed_secs(),
            wire * 8.0
        );
    }

    #[test]
    fn time_conservation_wall_equals_parts() {
        // comp + comm + io == wall on every rank for a workload with no idle.
        let d = presets::dcc();
        let progs = vec![
            vec![
                Op::Compute {
                    flops: 1e8,
                    bytes: 0.0,
                },
                Op::Exchange {
                    partner: 1,
                    send_bytes: 2048,
                    recv_bytes: 2048,
                    tag: 0,
                },
                Op::FileRead { bytes: 1_000_000 },
                Op::Coll(CollOp::Allreduce { bytes: 8 }),
            ],
            vec![
                Op::Exchange {
                    partner: 0,
                    send_bytes: 2048,
                    recv_bytes: 2048,
                    tag: 0,
                },
                Op::Coll(CollOp::Allreduce { bytes: 8 }),
            ],
        ];
        let r = run(job(progs), &d);
        for t in &r.ranks {
            assert_eq!(t.other(), sim_des::SimDur::ZERO, "{t:?}");
        }
    }
}

#[cfg(test)]
mod nonblocking_tests {
    use super::*;
    use sim_platform::presets;

    fn run(mut job: JobSpec, cluster: &sim_platform::ClusterSpec) -> SimResult {
        run_job(&mut job, cluster, &SimConfig::default(), &mut NullSink).unwrap()
    }

    fn two_node_progs() -> (usize, usize) {
        // Ranks 0 and 8 are on different Vayu nodes under block placement.
        (0, 8)
    }

    #[test]
    fn irecv_wait_equals_recv_when_no_overlap() {
        let v = presets::vayu();
        let (a, b) = two_node_progs();
        let mk = |nonblocking: bool| {
            let mut progs = vec![vec![]; 9];
            progs[a] = vec![Op::Send {
                to: b as u32,
                bytes: 4096,
                tag: 0,
            }];
            progs[b] = if nonblocking {
                vec![
                    Op::Irecv {
                        from: a as u32,
                        bytes: 4096,
                        tag: 0,
                        req: 1,
                    },
                    Op::Wait { req: 1 },
                ]
            } else {
                vec![Op::Recv {
                    from: a as u32,
                    bytes: 4096,
                    tag: 0,
                }]
            };
            JobSpec::from_programs("t", progs, vec![])
        };
        let blocking = run(mk(false), &v);
        let nonblocking = run(mk(true), &v);
        assert_eq!(blocking.elapsed, nonblocking.elapsed);
    }

    #[test]
    fn overlap_hides_communication() {
        // Receiver posts the irecv, computes for ~the transfer time, then
        // waits: the wait should be nearly free, unlike the blocking
        // version where compute and transfer serialize at the recv.
        let d = presets::dcc();
        let big = 512 * 1024; // ~2.7 ms on the DCC fabric
        let compute = Op::Compute {
            flops: 2e7,
            bytes: 0.0,
        }; // ~10 ms
        let mk = |overlap: bool| {
            let mut progs = vec![vec![]; 9];
            progs[0] = vec![Op::Send {
                to: 8,
                bytes: big,
                tag: 0,
            }];
            progs[8] = if overlap {
                vec![
                    Op::Irecv {
                        from: 0,
                        bytes: big,
                        tag: 0,
                        req: 7,
                    },
                    compute,
                    Op::Wait { req: 7 },
                ]
            } else {
                vec![
                    compute,
                    Op::Recv {
                        from: 0,
                        bytes: big,
                        tag: 0,
                    },
                ]
            };
            JobSpec::from_programs("t", progs, vec![])
        };
        let serial = run(mk(false), &d);
        let overlapped = run(mk(true), &d);
        assert!(
            overlapped.elapsed < serial.elapsed,
            "overlap {} !< serial {}",
            overlapped.elapsed_secs(),
            serial.elapsed_secs()
        );
        // The receiver's comm time shrinks to ~the receive occupancy.
        assert!(overlapped.ranks[8].comm.as_secs_f64() < serial.ranks[8].comm.as_secs_f64() * 0.8);
    }

    #[test]
    fn isend_wait_is_cheap() {
        let v = presets::vayu();
        let mut progs = vec![vec![]; 9];
        progs[0] = vec![
            Op::Isend {
                to: 8,
                bytes: 1024,
                tag: 0,
                req: 3,
            },
            Op::Compute {
                flops: 1e7,
                bytes: 0.0,
            },
            Op::Wait { req: 3 },
        ];
        progs[8] = vec![Op::Recv {
            from: 0,
            bytes: 1024,
            tag: 0,
        }];
        let job = JobSpec::from_programs("t", progs, vec![]);
        let r = run(job, &v);
        // Sender's comm is just the send occupancy; the wait added nothing.
        assert!(r.ranks[0].comm.as_secs_f64() < 10e-6, "{:?}", r.ranks[0]);
    }

    #[test]
    fn wait_before_arrival_blocks_until_message() {
        let v = presets::vayu();
        let mut progs = vec![vec![]; 9];
        progs[0] = vec![
            Op::Compute {
                flops: 2.5e9,
                bytes: 0.0,
            }, // ~1 s
            Op::Send {
                to: 8,
                bytes: 64,
                tag: 0,
            },
        ];
        progs[8] = vec![
            Op::Irecv {
                from: 0,
                bytes: 64,
                tag: 0,
                req: 1,
            },
            Op::Wait { req: 1 },
        ];
        let job = JobSpec::from_programs("t", progs, vec![]);
        let r = run(job, &v);
        assert!(r.ranks[8].comm.as_secs_f64() > 0.9, "{:?}", r.ranks[8]);
    }

    #[test]
    fn validate_catches_request_misuse() {
        let mut dangling = JobSpec::from_programs(
            "t",
            vec![
                vec![Op::Isend {
                    to: 1,
                    bytes: 8,
                    tag: 0,
                    req: 1,
                }],
                vec![Op::Recv {
                    from: 0,
                    bytes: 8,
                    tag: 0,
                }],
            ],
            vec![],
        );
        assert!(dangling.validate().unwrap_err().contains("never waited"));
        let mut unknown = JobSpec::from_programs("t", vec![vec![Op::Wait { req: 9 }]], vec![]);
        assert!(unknown.validate().unwrap_err().contains("unknown request"));
        let mut reused = JobSpec::from_programs(
            "t",
            vec![
                vec![
                    Op::Isend {
                        to: 1,
                        bytes: 8,
                        tag: 0,
                        req: 1,
                    },
                    Op::Isend {
                        to: 1,
                        bytes: 8,
                        tag: 1,
                        req: 1,
                    },
                    Op::Wait { req: 1 },
                    Op::Wait { req: 1 },
                ],
                vec![
                    Op::Recv {
                        from: 0,
                        bytes: 8,
                        tag: 0,
                    },
                    Op::Recv {
                        from: 0,
                        bytes: 8,
                        tag: 1,
                    },
                ],
            ],
            vec![],
        );
        assert!(reused.validate().unwrap_err().contains("reused"));
    }

    #[test]
    fn pre_posted_irecv_matches_before_blocking_recv() {
        // Rank 8 posts an irecv then a blocking recv on the same channel;
        // two messages arrive: FIFO means the irecv gets the first one.
        let v = presets::vayu();
        let mut progs = vec![vec![]; 9];
        progs[0] = vec![
            Op::Send {
                to: 8,
                bytes: 100,
                tag: 5,
            },
            Op::Send {
                to: 8,
                bytes: 200,
                tag: 5,
            },
        ];
        progs[8] = vec![
            Op::Irecv {
                from: 0,
                bytes: 100,
                tag: 5,
                req: 1,
            },
            Op::Recv {
                from: 0,
                bytes: 200,
                tag: 5,
            },
            Op::Wait { req: 1 },
        ];
        let job = JobSpec::from_programs("t", progs, vec![]);
        let r = run(job, &v);
        assert!(r.elapsed_secs() > 0.0);
    }
}

#[cfg(test)]
mod group_tests {
    use super::*;
    use sim_platform::presets;

    fn run(mut job: JobSpec, cluster: &sim_platform::ClusterSpec) -> SimResult {
        run_job(&mut job, cluster, &SimConfig::default(), &mut NullSink).unwrap()
    }

    #[test]
    fn group_membership_and_size() {
        let g = Group::Strided {
            first: 2,
            count: 3,
            stride: 4,
        };
        assert_eq!(g.members(16).collect::<Vec<_>>(), vec![2, 6, 10]);
        assert_eq!(g.size(16), 3);
        assert!(g.contains(6, 16));
        assert!(!g.contains(4, 16));
        assert!(!g.contains(14, 16));
        assert_eq!(Group::World.members(3).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn row_allreduce_only_involves_the_row() {
        // 16 ranks on one Vayu node... use 2 nodes: 16 ranks, rows of 4.
        let v = presets::vayu();
        let row0 = Group::Strided {
            first: 0,
            count: 4,
            stride: 1,
        };
        let mut progs: Vec<Vec<Op>> = vec![vec![]; 16];
        // Only row 0 does a group allreduce; rank 15 computes a long time.
        for p in progs.iter_mut().take(4) {
            *p = vec![Op::GroupColl {
                group: row0,
                op: CollOp::Allreduce { bytes: 8 },
            }];
        }
        progs[15] = vec![Op::Compute {
            flops: 2.5e9,
            bytes: 0.0,
        }];
        let job = JobSpec::from_programs("g", progs, vec![]);
        let r = run(job, &v);
        // Row 0 finishes in microseconds — it never waits for rank 15.
        for m in 0..4 {
            assert!(
                r.ranks[m].wall.as_secs_f64() < 1e-3,
                "rank {m}: {:?}",
                r.ranks[m]
            );
        }
        assert!(r.ranks[15].wall.as_secs_f64() > 0.9);
    }

    #[test]
    fn intra_node_group_is_cheaper_than_world() {
        // On DCC at 16 ranks (2 nodes), a consecutive 8-rank group sits on
        // one node: its allreduce avoids the GigE entirely.
        let d = presets::dcc();
        let node0 = Group::Strided {
            first: 0,
            count: 8,
            stride: 1,
        };
        let mk = |world: bool| {
            let progs: Vec<Vec<Op>> = (0..16)
                .map(|r| {
                    if world {
                        vec![Op::Coll(CollOp::Allreduce { bytes: 8 }); 50]
                    } else if r < 8 {
                        vec![
                            Op::GroupColl {
                                group: node0,
                                op: CollOp::Allreduce { bytes: 8 }
                            };
                            50
                        ]
                    } else {
                        vec![]
                    }
                })
                .collect();
            JobSpec::from_programs("g", progs, vec![])
        };
        let world = run(mk(true), &d).elapsed_secs();
        let group = run(mk(false), &d).elapsed_secs();
        assert!(
            group < world / 5.0,
            "intra-node group {group} vs world {world}"
        );
    }

    #[test]
    fn strided_column_group_spans_nodes() {
        // Column group with stride 8 on Vayu's 8-core nodes: every member
        // is on a different node, so the allreduce pays inter-node latency.
        let v = presets::vayu();
        let col = Group::Strided {
            first: 0,
            count: 4,
            stride: 8,
        };
        let consecutive = Group::Strided {
            first: 0,
            count: 4,
            stride: 1,
        };
        let mk = |g: Group, members: Vec<u32>| {
            let progs: Vec<Vec<Op>> = (0..32)
                .map(|r| {
                    if members.contains(&(r as u32)) {
                        vec![
                            Op::GroupColl {
                                group: g,
                                op: CollOp::Allreduce { bytes: 8 }
                            };
                            20
                        ]
                    } else {
                        vec![]
                    }
                })
                .collect();
            JobSpec::from_programs("g", progs, vec![])
        };
        let spread = run(mk(col, vec![0, 8, 16, 24]), &v).elapsed_secs();
        let packed = run(mk(consecutive, vec![0, 1, 2, 3]), &v).elapsed_secs();
        assert!(spread > packed * 2.0, "spread {spread} packed {packed}");
    }

    #[test]
    fn validate_rejects_group_misuse() {
        // Non-member issuing the group collective.
        let g = Group::Strided {
            first: 0,
            count: 2,
            stride: 1,
        };
        let mut bad = JobSpec::from_programs(
            "g",
            vec![
                vec![Op::GroupColl {
                    group: g,
                    op: CollOp::Barrier,
                }],
                vec![Op::GroupColl {
                    group: g,
                    op: CollOp::Barrier,
                }],
                vec![Op::GroupColl {
                    group: g,
                    op: CollOp::Barrier,
                }],
            ],
            vec![],
        );
        assert!(bad.validate().is_err());
        // Missing member.
        let mut missing = JobSpec::from_programs(
            "g",
            vec![
                vec![Op::GroupColl {
                    group: g,
                    op: CollOp::Barrier,
                }],
                vec![],
            ],
            vec![],
        );
        assert!(missing.validate().is_err());
        // Group extends past np.
        let oob = Group::Strided {
            first: 0,
            count: 5,
            stride: 1,
        };
        let mut past = JobSpec::from_programs(
            "g",
            vec![
                vec![Op::GroupColl {
                    group: oob,
                    op: CollOp::Barrier,
                }],
                vec![Op::GroupColl {
                    group: oob,
                    op: CollOp::Barrier,
                }],
            ],
            vec![],
        );
        assert!(past.validate().is_err());
        // A correct 2-member group passes.
        let mut ok = JobSpec::from_programs(
            "g",
            vec![
                vec![Op::GroupColl {
                    group: g,
                    op: CollOp::Barrier,
                }],
                vec![Op::GroupColl {
                    group: g,
                    op: CollOp::Barrier,
                }],
                vec![],
            ],
            vec![],
        );
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn overlapping_groups_interleave_correctly() {
        // Rows {0,1} and {2,3} plus a world barrier: sequences per
        // communicator are tracked independently.
        let r0 = Group::Strided {
            first: 0,
            count: 2,
            stride: 1,
        };
        let r1 = Group::Strided {
            first: 2,
            count: 2,
            stride: 1,
        };
        let progs: Vec<Vec<Op>> = (0..4u32)
            .map(|r| {
                let g = if r < 2 { r0 } else { r1 };
                vec![
                    Op::GroupColl {
                        group: g,
                        op: CollOp::Allreduce { bytes: 8 },
                    },
                    Op::Coll(CollOp::Barrier),
                    Op::GroupColl {
                        group: g,
                        op: CollOp::Allreduce { bytes: 8 },
                    },
                ]
            })
            .collect();
        let mut job = JobSpec::from_programs("g", progs, vec![]);
        job.validate().unwrap();
        let r = run(job, &presets::vayu());
        assert!(r.elapsed_secs() > 0.0);
    }
}

#[cfg(test)]
mod fuzz {
    //! Property fuzzing of the engine: random programs generated from a
    //! global action script (which makes them deadlock-free by
    //! construction — every rank's program order is a subsequence of one
    //! total order, so the globally-earliest pending pairwise action always
    //! has both participants available). Checkpoints and verification cuts
    //! are world-synchronised like the collectives, so every rank sees the
    //! same cut sequence and a relaunch can resume any of them.

    use super::*;
    use sim_des::DetRng;
    use sim_platform::presets;

    #[derive(Debug, Clone)]
    enum Action {
        Compute {
            rank: u8,
            flops: u32,
        },
        Message {
            src: u8,
            dst: u8,
            bytes: u32,
            tag: u8,
        },
        ExchangePair {
            a: u8,
            b: u8,
            bytes: u32,
            tag: u8,
        },
        NonBlockingMessage {
            src: u8,
            dst: u8,
            bytes: u32,
            tag: u8,
        },
        Allreduce {
            bytes: u32,
        },
        Barrier,
        Checkpoint {
            bytes: u32,
        },
        Verify {
            flops: u32,
            state_bytes: u32,
        },
    }

    /// Draw one random action; pairwise actions always reference two
    /// distinct ranks.
    fn gen_action(rng: &mut DetRng, np: u8) -> Action {
        let pair = |rng: &mut DetRng| {
            let a = rng.index(np as usize) as u8;
            let mut b = rng.index(np as usize) as u8;
            while b == a {
                b = rng.index(np as usize) as u8;
            }
            (a, b)
        };
        match rng.index(8) {
            0 => Action::Compute {
                rank: rng.index(np as usize) as u8,
                flops: 1 + rng.index(49_999_999) as u32,
            },
            1 => {
                let (src, dst) = pair(rng);
                Action::Message {
                    src,
                    dst,
                    bytes: 1 + rng.index(199_999) as u32,
                    tag: rng.index(4) as u8,
                }
            }
            2 => {
                let (a, b) = pair(rng);
                Action::ExchangePair {
                    a,
                    b,
                    bytes: 1 + rng.index(199_999) as u32,
                    tag: rng.index(4) as u8,
                }
            }
            3 => {
                let (src, dst) = pair(rng);
                Action::NonBlockingMessage {
                    src,
                    dst,
                    bytes: 1 + rng.index(199_999) as u32,
                    tag: 4 + rng.index(4) as u8,
                }
            }
            4 => Action::Allreduce {
                bytes: 1 + rng.index(99_999) as u32,
            },
            5 => Action::Barrier,
            6 => Action::Checkpoint {
                bytes: 1 + rng.index(1 << 20) as u32,
            },
            _ => Action::Verify {
                flops: 1 + rng.index(9_999_999) as u32,
                state_bytes: 1 + rng.index(1 << 20) as u32,
            },
        }
    }

    fn compile(np: u8, script: &[Action]) -> JobSpec {
        let mut programs: Vec<Vec<Op>> = vec![Vec::new(); np as usize];
        let mut next_req: Vec<u32> = vec![0; np as usize];
        for a in script {
            match a {
                Action::Compute { rank, flops } => {
                    programs[*rank as usize].push(Op::Compute {
                        flops: *flops as f64,
                        bytes: 0.0,
                    });
                }
                Action::Message {
                    src,
                    dst,
                    bytes,
                    tag,
                } => {
                    programs[*src as usize].push(Op::Send {
                        to: *dst as Rank,
                        bytes: *bytes as usize,
                        tag: *tag as Tag,
                    });
                    programs[*dst as usize].push(Op::Recv {
                        from: *src as Rank,
                        bytes: *bytes as usize,
                        tag: *tag as Tag,
                    });
                }
                Action::ExchangePair { a, b, bytes, tag } => {
                    for (me, other) in [(a, b), (b, a)] {
                        programs[*me as usize].push(Op::Exchange {
                            partner: *other as Rank,
                            send_bytes: *bytes as usize,
                            recv_bytes: *bytes as usize,
                            tag: *tag as Tag,
                        });
                    }
                }
                Action::NonBlockingMessage {
                    src,
                    dst,
                    bytes,
                    tag,
                } => {
                    let req = next_req[*dst as usize];
                    next_req[*dst as usize] += 1;
                    programs[*dst as usize].push(Op::Irecv {
                        from: *src as Rank,
                        bytes: *bytes as usize,
                        tag: *tag as Tag,
                        req,
                    });
                    programs[*src as usize].push(Op::Send {
                        to: *dst as Rank,
                        bytes: *bytes as usize,
                        tag: *tag as Tag,
                    });
                    programs[*dst as usize].push(Op::Wait { req });
                }
                Action::Allreduce { bytes } => {
                    for p in programs.iter_mut() {
                        p.push(Op::Coll(CollOp::Allreduce {
                            bytes: *bytes as usize,
                        }));
                    }
                }
                Action::Barrier => {
                    for p in programs.iter_mut() {
                        p.push(Op::Coll(CollOp::Barrier));
                    }
                }
                Action::Checkpoint { bytes } => {
                    for p in programs.iter_mut() {
                        p.push(Op::Checkpoint {
                            bytes: *bytes as u64,
                        });
                    }
                }
                Action::Verify { flops, state_bytes } => {
                    for p in programs.iter_mut() {
                        p.push(Op::Verify {
                            flops: *flops as f64,
                            state_bytes: *state_bytes as u64,
                        });
                    }
                }
            }
        }
        JobSpec::from_programs("fuzz", programs, vec![])
    }

    /// Any script-generated program validates, runs to completion on
    /// every platform, is deterministic, and conserves per-rank time.
    #[test]
    fn random_programs_run_everywhere() {
        for case in 0..48u64 {
            let mut rng = DetRng::new(0xF022_0001, case);
            let np = 2 + rng.index(5) as u8;
            let len = 1 + rng.index(39);
            let script: Vec<Action> = (0..len).map(|_| gen_action(&mut rng, np)).collect();
            let seed = rng.next_u64();
            let mut job = compile(np, &script);
            let v = job.validate();
            assert!(v.is_ok(), "case {case}: {v:?}");
            for cluster in [presets::vayu(), presets::dcc(), presets::ec2()] {
                let cfg = SimConfig {
                    seed,
                    ..Default::default()
                };
                let a = run_job(&mut job, &cluster, &cfg, &mut NullSink).unwrap();
                let b = run_job(&mut job, &cluster, &cfg, &mut NullSink).unwrap();
                assert_eq!(a.elapsed, b.elapsed, "nondeterministic on {}", cluster.name);
                for (i, t) in a.ranks.iter().enumerate() {
                    assert_eq!(
                        t.other(),
                        sim_des::SimDur::ZERO,
                        "rank {} leaks time on {}: {:?}",
                        i,
                        cluster.name,
                        t
                    );
                    assert!(t.comp <= t.wall && t.comm <= t.wall);
                }
                // Elapsed equals the max rank wall.
                let max_wall = a.ranks.iter().map(|t| t.wall).max().unwrap();
                assert_eq!(a.elapsed, max_wall);
            }
        }
    }

    /// Every script, under heavy crashes, preemptions and silent
    /// corruption with each recovery strategy, finishes or exhausts its
    /// retry budget; a rerun is bit-identical, every rank conserves its
    /// time, and only the strategy in force shows its own recovery count.
    #[test]
    fn random_programs_recover_under_every_strategy() {
        use sim_faults::{FaultModel, FaultSpec, RecoveryStrategy, RetryPolicy};
        // Totals over all runs: the fuzz must reach every recovery path.
        let (mut restarts, mut rollbacks, mut shrinks, mut detected) = (0, 0, 0, 0);
        for case in 0..48u64 {
            let mut rng = DetRng::new(0xF022_0002, case);
            let np = 2 + rng.index(5) as u8;
            let len = 1 + rng.index(39);
            let script: Vec<Action> = (0..len).map(|_| gen_action(&mut rng, np)).collect();
            let seed = rng.next_u64();
            let mut job = compile(np, &script);
            for cluster in [presets::vayu(), presets::dcc(), presets::ec2()] {
                let plain = SimConfig {
                    seed,
                    ..Default::default()
                };
                let t0 = run_job(&mut job, &cluster, &plain, &mut NullSink)
                    .unwrap()
                    .elapsed_secs()
                    .max(1e-6);
                // Per node and fault-free runtime: two crashes, one
                // preemption and four corruptions.
                let per_t0 = 3600.0 / t0;
                let model = FaultModel {
                    crash_per_node_hour: 2.0 * per_t0,
                    crash_mean_secs: 0.05 * t0,
                    preempt_per_node_hour: per_t0,
                    sdc_per_node_hour: 4.0 * per_t0,
                    sdc_mean_severity: 1.0,
                    scale: 1.0,
                    ..FaultModel::none()
                };
                for recovery in [
                    RecoveryStrategy::Restart,
                    RecoveryStrategy::AbftRollback,
                    RecoveryStrategy::ShrinkSpare {
                        spares: 2,
                        respawn_delay_secs: 0.01 * t0,
                    },
                ] {
                    let cfg = SimConfig {
                        seed,
                        faults: Some(FaultSpec {
                            model: model.clone(),
                            retry: RetryPolicy::default(),
                            restart_delay_secs: 0.1 * t0,
                            horizon_secs: 10.0 * t0,
                            recovery,
                            sdc_threshold: 0.01,
                        }),
                        ..Default::default()
                    };
                    let ctx = format!("case {case} on {} under {recovery:?}", cluster.name);
                    let a = run_job(&mut job, &cluster, &cfg, &mut NullSink);
                    let b = run_job(&mut job, &cluster, &cfg, &mut NullSink);
                    let (a, b) = match (a, b) {
                        (Ok(a), Ok(b)) => (a, b),
                        (Err(SimError::RetryExhausted(x)), Err(SimError::RetryExhausted(y))) => {
                            assert_eq!(x, y, "{ctx}");
                            continue;
                        }
                        (a, b) => panic!("{ctx}: {a:?} then {b:?}"),
                    };
                    assert_eq!(a.elapsed, b.elapsed, "{ctx}");
                    assert_eq!(a.ranks, b.ranks, "{ctx}");
                    assert_eq!(
                        (a.ops_executed, a.restarts, a.rollbacks, a.shrinks),
                        (b.ops_executed, b.restarts, b.rollbacks, b.shrinks),
                        "{ctx}"
                    );
                    assert_eq!(
                        (a.sdc_detected, a.sdc_undetected),
                        (b.sdc_detected, b.sdc_undetected),
                        "{ctx}"
                    );
                    for (i, t) in a.ranks.iter().enumerate() {
                        assert_eq!(t.other(), sim_des::SimDur::ZERO, "{ctx} rank {i}: {t:?}");
                    }
                    let max_wall = a.ranks.iter().map(|t| t.wall).max().unwrap();
                    assert_eq!(a.elapsed, max_wall, "{ctx}");
                    match recovery {
                        RecoveryStrategy::AbftRollback => assert_eq!(a.shrinks, 0, "{ctx}"),
                        RecoveryStrategy::ShrinkSpare { spares, .. } => {
                            assert_eq!(a.rollbacks, 0, "{ctx}");
                            assert!(a.shrinks <= spares as u64, "{ctx}: {a:?}");
                        }
                        RecoveryStrategy::Restart => {
                            assert_eq!((a.rollbacks, a.shrinks), (0, 0), "{ctx}")
                        }
                    }
                    restarts += a.restarts;
                    rollbacks += a.rollbacks;
                    shrinks += a.shrinks;
                    detected += a.sdc_detected;
                }
            }
        }
        assert!(
            restarts > 0 && rollbacks > 0 && shrinks > 0 && detected > 0,
            "restarts {restarts}, rollbacks {rollbacks}, shrinks {shrinks}, detected {detected}"
        );
    }
}
