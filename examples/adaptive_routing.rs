//! Adaptive plane selection: a host learns from flow-completion feedback
//! which plane is congested and steers around it (the paper's section 3.4
//! pointer to DARD-style end-host routing).
//!
//! Run with: `cargo run --release --example adaptive_routing`

use pnet::core::adaptive::{ideal_fct_us, AdaptiveBalancer};
use pnet::core::{PNetSpec, PathPolicy, TopologyKind};
use pnet::htsim::{run, Driver, FlowRecord, FlowSpec, NullDriver, SimConfig, SimTime, Simulator};
use pnet::routing::{host_route, RouteAlgo, Router};
use pnet::topology::{HostId, NetworkClass, PlaneId};

const FLOW_BYTES: u64 = 150_000;

struct Learner<'a> {
    net: &'a pnet::topology::Network,
    router: Router,
    balancer: AdaptiveBalancer,
    launched: u64,
    per_plane: Vec<u32>,
    fcts: Vec<f64>,
    plane_of: std::collections::HashMap<u64, PlaneId>,
}

impl Learner<'_> {
    fn launch(&mut self, sim: &mut Simulator) {
        let tag = self.launched;
        self.launched += 1;
        let usable: Vec<PlaneId> = self.net.planes().collect();
        let plane = self.balancer.choose(&usable);
        self.per_plane[plane.index()] += 1;
        let (src, dst) = (HostId(0), HostId(30));
        let path = self.router.paths_in_plane(
            plane,
            self.net.rack_of_host(src),
            self.net.rack_of_host(dst),
        );
        let route = host_route(self.net, src, dst, path.get(0)).unwrap();
        self.plane_of.insert(tag, plane);
        sim.start_flow(FlowSpec {
            src,
            dst,
            size_bytes: FLOW_BYTES,
            routes: vec![route],
            cc: pnet::htsim::CcAlgo::Reno,
            owner_tag: tag,
        });
    }
}

impl Driver for Learner<'_> {
    fn on_app_timer(&mut self, sim: &mut Simulator, _app: u32, _tag: u64) {
        if self.launched < 80 {
            self.launch(sim);
            let next = sim.now + SimTime::from_us(50);
            sim.schedule_app(next, 0, 0);
        }
    }
    fn on_flow_complete(&mut self, _sim: &mut Simulator, rec: FlowRecord) {
        if rec.owner_tag == u64::MAX {
            return;
        }
        let plane = self.plane_of[&rec.owner_tag];
        let fct = rec.fct().as_us_f64();
        self.fcts.push(fct);
        self.balancer
            .report(plane, fct / ideal_fct_us(FLOW_BYTES, 100_000_000_000));
    }
}

fn main() {
    let pnet = PNetSpec::new(
        TopologyKind::Jellyfish {
            n_tors: 16,
            degree: 4,
            hosts_per_tor: 2,
        },
        NetworkClass::ParallelHomogeneous,
        4,
        11,
    )
    .build();
    let mut sim = Simulator::new(&pnet.net, SimConfig::default());

    // Congest plane 0 with background bulk.
    let mut bulk = pnet.selector(PathPolicy::Pinned {
        planes: vec![0],
        inner: Box::new(PathPolicy::EcmpHash),
    });
    for (i, (a, b)) in [(2u32, 29u32), (3, 28), (5, 27), (6, 26)]
        .iter()
        .enumerate()
    {
        let (routes, cc) = bulk.select(&pnet.net, HostId(*a), HostId(*b), i as u64, 80_000_000);
        sim.start_flow(FlowSpec {
            src: HostId(*a),
            dst: HostId(*b),
            size_bytes: 80_000_000,
            routes,
            cc,
            owner_tag: u64::MAX,
        });
    }

    let mut learner = Learner {
        net: &pnet.net,
        router: Router::new(&pnet.net, RouteAlgo::Ksp { k: 2 }),
        balancer: AdaptiveBalancer::new(4, 0.4, 16),
        launched: 0,
        per_plane: vec![0; 4],
        fcts: Vec::new(),
        plane_of: Default::default(),
    };
    sim.schedule_app(SimTime::from_us(10), 0, 0);
    run(&mut sim, &mut learner, Some(SimTime::from_ms(30)));
    run(&mut sim, &mut NullDriver, Some(SimTime::from_ms(60)));

    println!("plane 0 carries heavy background bulk; 80 small flows placed adaptively\n");
    println!(
        "flows per plane: {:?}  (plane 0 is congested)",
        learner.per_plane
    );
    let median = |v: &[f64]| pnet::htsim::metrics::percentile(v, 50.0);
    let early = &learner.fcts[..learner.fcts.len() / 4];
    let late = &learner.fcts[3 * learner.fcts.len() / 4..];
    println!(
        "median FCT, first quarter (learning): {:>8.1} us",
        median(early)
    );
    println!(
        "median FCT, last quarter (steady):    {:>8.1} us",
        median(late)
    );
    println!("(occasional slow flows are the balancer probing the congested plane)");
    println!("\nthe balancer's EWMA steers traffic off plane 0 after a handful of");
    println!("slow completions — no switch support needed, exactly the paper's");
    println!("end-host routing argument.");
}
