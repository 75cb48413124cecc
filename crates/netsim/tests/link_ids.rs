//! Property test for the fabric's link numbering: the link a route takes,
//! computed by arithmetic on per-node offsets, must be the link a
//! key → id map built in link-construction order names.

use std::collections::HashMap;

use parcomm_gpu::{Location, Unit};
use parcomm_net::{ClusterSpec, Fabric, RouteClass};
use parcomm_obs::MetricsRegistry;
use parcomm_sim::{SimDuration, SimRng, Simulation};

/// The physical links the fabric instantiates, keyed as a map would be.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum Key {
    NvLink { node: u16, src: u8, dst: u8 },
    C2c { node: u16, gpu: u8, up: bool },
    Ib { node: u16, nic: u8, up: bool },
    HostMem { node: u16 },
}

/// The reference: every link's id, assigned in construction order (per
/// node: host memory; per GPU its C2C up and down links and its NVLinks to
/// each other GPU; per NIC its IB uplink and downlink).
fn reference_ids(gpus: &[u8], nics: &[u8]) -> HashMap<Key, usize> {
    let mut ids = HashMap::new();
    let mut add = |key: Key| {
        let id = ids.len();
        assert!(ids.insert(key, id).is_none(), "duplicate link {key:?}");
    };
    for (node, (&g, &k)) in gpus.iter().zip(nics).enumerate() {
        let node = node as u16;
        add(Key::HostMem { node });
        for gpu in 0..g {
            add(Key::C2c {
                node,
                gpu,
                up: true,
            });
            add(Key::C2c {
                node,
                gpu,
                up: false,
            });
            for dst in (0..g).filter(|&d| d != gpu) {
                add(Key::NvLink {
                    node,
                    src: gpu,
                    dst,
                });
            }
        }
        for nic in 0..k {
            add(Key::Ib {
                node,
                nic,
                up: true,
            });
            add(Key::Ib {
                node,
                nic,
                up: false,
            });
        }
    }
    ids
}

/// The keys of the route from `src` to `dst`: the dedicated link of the
/// route class, or the two NICs' IB links across nodes.
fn reference_route(src: Location, dst: Location, nics: &[u8]) -> Vec<Key> {
    let node = src.node;
    let nic = |loc: Location| match loc.unit {
        Unit::Gpu(i) => i % nics[loc.node as usize],
        Unit::Cpu => 0,
    };
    match (RouteClass::classify(src, dst), src.unit, dst.unit) {
        (RouteClass::SameGpu | RouteClass::HostLocal, _, _) => vec![Key::HostMem { node }],
        (RouteClass::NvLink, Unit::Gpu(a), Unit::Gpu(b)) => vec![Key::NvLink {
            node,
            src: a,
            dst: b,
        }],
        (RouteClass::C2cHost, Unit::Gpu(a), Unit::Cpu) => vec![Key::C2c {
            node,
            gpu: a,
            up: true,
        }],
        (RouteClass::C2cHost, Unit::Cpu, Unit::Gpu(b)) => vec![Key::C2c {
            node,
            gpu: b,
            up: false,
        }],
        (RouteClass::IbCrossNode, _, _) => vec![
            Key::Ib {
                node,
                nic: nic(src),
                up: true,
            },
            Key::Ib {
                node: dst.node,
                nic: nic(dst),
                up: false,
            },
        ],
        (class, s, d) => unreachable!("{class:?} between {s:?} and {d:?}"),
    }
}

fn check_shape(spec: ClusterSpec) {
    let topo = spec.topology().expect("valid shape");
    let gpus: Vec<u8> = (0..topo.nodes()).map(|v| topo.gpus_on(v)).collect();
    let nics: Vec<u8> = (0..topo.nodes()).map(|v| topo.nics_on(v)).collect();
    let ids = reference_ids(&gpus, &nics);
    let latency = |key: &Key| match key {
        Key::NvLink { .. } => spec.nvlink.latency_us,
        Key::C2c { .. } => spec.c2c.latency_us,
        Key::Ib { .. } => spec.ib.latency_us,
        Key::HostMem { .. } => spec.host_mem.latency_us,
    };
    let sim = Simulation::with_seed(1);
    let fabric = Fabric::new(sim.handle(), spec.clone(), &MetricsRegistry::new());
    let locations: Vec<Location> = (0..topo.nodes())
        .flat_map(|node| {
            let gpus = (0..gpus[node as usize]).map(move |i| Location {
                node,
                unit: Unit::Gpu(i),
            });
            gpus.chain([Location {
                node,
                unit: Unit::Cpu,
            }])
        })
        .collect();
    let mut used = vec![false; ids.len()];
    for &src in &locations {
        for &dst in &locations {
            let want = reference_route(src, dst, &nics);
            let route = fabric.route(src, dst);
            let got: Vec<usize> = route.links().iter().map(|l| l.index()).collect();
            let want_ids: Vec<usize> = want.iter().map(|k| ids[k]).collect();
            assert_eq!(got, want_ids, "{topo}: route {src:?} -> {dst:?} ({want:?})");
            let want_latency: SimDuration = want
                .iter()
                .map(|k| SimDuration::from_micros_f64(latency(k)))
                .sum();
            assert_eq!(
                route.latency, want_latency,
                "{topo}: latency {src:?} -> {dst:?}"
            );
            for id in got {
                used[id] = true;
            }
        }
    }
    // Every link is some route's hop (IB links need a second node): the
    // arithmetic numbers all of them.
    for (key, &id) in &ids {
        let reachable = topo.nodes() > 1 || !matches!(key, Key::Ib { .. });
        assert!(used[id] || !reachable, "{topo}: no route reaches {key:?}");
    }
}

#[test]
fn uniform_shapes_number_links_like_the_map() {
    for (nodes, gpus, nics) in [(1, 1, 1), (1, 4, 4), (2, 4, 4), (3, 4, 2), (2, 8, 3)] {
        let mut spec = ClusterSpec::gh200(nodes);
        spec.gpus_per_node = gpus;
        spec.nics_per_node = nics;
        check_shape(spec);
    }
}

#[test]
fn ragged_shapes_number_links_like_the_map() {
    check_shape(ClusterSpec::gh200_ragged(&[4, 2, 4, 1], &[2, 1, 2, 1], 1));
    let mut rng = SimRng::seeded(0x11D5);
    for _ in 0..64 {
        let nodes = rng.uniform_range(1, 6) as usize;
        let gpus: Vec<u8> = (0..nodes).map(|_| rng.uniform_range(1, 9) as u8).collect();
        let nics: Vec<u8> = gpus
            .iter()
            .map(|&g| rng.uniform_range(1, g as u64 + 1) as u8)
            .collect();
        let ranks_per_gpu = rng.uniform_range(1, 3) as u8;
        check_shape(ClusterSpec::gh200_ragged(&gpus, &nics, ranks_per_gpu));
    }
}
