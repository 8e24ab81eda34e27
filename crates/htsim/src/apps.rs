//! Workload drivers: the application layer of the simulator.
//!
//! Three reusable [`Driver`]s cover every packet-level experiment in the
//! paper:
//!
//! * [`ClosedLoopDriver`] — N flow "slots", each immediately replaced on
//!   completion with a fresh flow (the trace-replay setup of section 5.3:
//!   "each flow runs in a closed loop");
//! * [`RpcDriver`] — ping-pong request/response pairs with per-round
//!   completion times (sections 5.2.1 and Figure 11's concurrent RPCs);
//! * [`ShuffleDriver`] — staged bulk transfers with per-worker concurrency
//!   limits and per-worker stage completion times (the Hadoop sort of
//!   section 5.2.2).
//!
//! Drivers know nothing about topologies: a *flow factory* closure maps
//! `(src, dst, size)` to subflow routes and a congestion controller, which is
//! where the P-Net path-selection policies plug in.
//!
//! Each [`FlowRecord`] has one owner. [`ClosedLoopDriver`] and
//! [`OpenLoopDriver`] move theirs into `completed`; [`RpcDriver`] and
//! [`ShuffleDriver`] keep only what they measure. None hands a record back,
//! so [`Simulator::records`] stays empty behind all four.

use crate::sim::{Driver, FlowRecord, FlowSpec, Simulator};
use crate::tcp::CcAlgo;
use crate::time::SimTime;
use pnet_topology::{HostId, LinkId};

/// Maps a flow request to concrete subflow routes and a congestion
/// controller. This is the hook where path-selection policy lives.
pub type FlowFactory<'a> = Box<dyn FnMut(HostId, HostId, u64) -> (Vec<Vec<LinkId>>, CcAlgo) + 'a>;

/// Build a [`FlowSpec`] through a factory.
fn make_spec(factory: &mut FlowFactory, src: HostId, dst: HostId, size: u64, tag: u64) -> FlowSpec {
    let (routes, cc) = factory(src, dst, size);
    FlowSpec {
        src,
        dst,
        size_bytes: size,
        routes,
        cc,
        owner_tag: tag,
    }
}

// ---------------------------------------------------------------------------
// Closed-loop driver
// ---------------------------------------------------------------------------

/// One closed-loop slot: a (source, destination-chooser, size-sampler)
/// triple that always keeps exactly one flow in flight.
pub struct ClosedLoopSlot<'a> {
    /// Fixed source host.
    pub src: HostId,
    /// Produces the next destination (may be constant or random).
    pub next_dst: Box<dyn FnMut() -> HostId + 'a>,
    /// Produces the next flow size in bytes.
    pub next_size: Box<dyn FnMut() -> u64 + 'a>,
}

/// Keeps `slots.len()` flows in flight until `stop` (new flows are not
/// started after `stop`; in-flight ones finish).
pub struct ClosedLoopDriver<'a> {
    slots: Vec<ClosedLoopSlot<'a>>,
    factory: FlowFactory<'a>,
    stop: SimTime,
    /// All completed flow records, in completion order (the simulator
    /// keeps none).
    pub completed: Vec<FlowRecord>,
}

impl<'a> ClosedLoopDriver<'a> {
    /// Create the driver and start one flow per slot.
    pub fn start(
        sim: &mut Simulator,
        mut slots: Vec<ClosedLoopSlot<'a>>,
        mut factory: FlowFactory<'a>,
        stop: SimTime,
    ) -> Self {
        for (i, slot) in slots.iter_mut().enumerate() {
            let dst = (slot.next_dst)();
            let size = (slot.next_size)();
            let spec = make_spec(&mut factory, slot.src, dst, size, i as u64);
            sim.start_flow(spec);
        }
        ClosedLoopDriver {
            slots,
            factory,
            stop,
            completed: Vec::new(),
        }
    }
}

impl Driver for ClosedLoopDriver<'_> {
    fn on_flow_complete(&mut self, sim: &mut Simulator, rec: FlowRecord) {
        let tag = rec.owner_tag;
        self.completed.push(rec);
        if sim.now >= self.stop {
            return;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "owner_tag is the slot index this driver wrote as `i as u64`"
        )]
        let i = tag as usize;
        let slot = &mut self.slots[i];
        let dst = (slot.next_dst)();
        let size = (slot.next_size)();
        let spec = make_spec(&mut self.factory, slot.src, dst, size, tag);
        sim.start_flow(spec);
    }
}

// ---------------------------------------------------------------------------
// Open-loop (Poisson arrival) driver
// ---------------------------------------------------------------------------

/// Open-loop workload: flows arrive on a global arrival process regardless
/// of completions (the standard FCT-versus-offered-load methodology).
/// Arrivals stop at `stop`; in-flight flows drain afterwards.
pub struct OpenLoopDriver<'a> {
    factory: FlowFactory<'a>,
    /// Samples the next flow: (source, destination, size).
    next_flow: Box<dyn FnMut() -> (HostId, HostId, u64) + 'a>,
    /// Samples the next inter-arrival gap.
    next_gap: Box<dyn FnMut() -> SimTime + 'a>,
    stop: SimTime,
    /// All completed flow records, in completion order (the simulator
    /// keeps none).
    pub completed: Vec<FlowRecord>,
    /// Flows started.
    pub started: u64,
}

/// App id used by [`OpenLoopDriver`]'s arrival timer.
const OPEN_LOOP_APP: u32 = 0xA1;

impl<'a> OpenLoopDriver<'a> {
    /// Create the driver and schedule the first arrival.
    pub fn start(
        sim: &mut Simulator,
        factory: FlowFactory<'a>,
        next_flow: Box<dyn FnMut() -> (HostId, HostId, u64) + 'a>,
        mut next_gap: Box<dyn FnMut() -> SimTime + 'a>,
        stop: SimTime,
    ) -> Self {
        let first = sim.now + next_gap();
        sim.schedule_app(first, OPEN_LOOP_APP, 0);
        OpenLoopDriver {
            factory,
            next_flow,
            next_gap,
            stop,
            completed: Vec::new(),
            started: 0,
        }
    }
}

impl Driver for OpenLoopDriver<'_> {
    fn on_app_timer(&mut self, sim: &mut Simulator, app: u32, _tag: u64) {
        debug_assert_eq!(app, OPEN_LOOP_APP);
        if sim.now >= self.stop {
            return; // arrivals end; in-flight flows drain
        }
        let (src, dst, size) = (self.next_flow)();
        let spec = make_spec(&mut self.factory, src, dst, size, self.started);
        sim.start_flow(spec);
        self.started += 1;
        let next = sim.now + (self.next_gap)();
        sim.schedule_app(next, OPEN_LOOP_APP, self.started);
    }

    fn on_flow_complete(&mut self, _sim: &mut Simulator, rec: FlowRecord) {
        self.completed.push(rec);
    }
}

// ---------------------------------------------------------------------------
// RPC ping-pong driver
// ---------------------------------------------------------------------------

/// One ping-pong slot (a client with one outstanding RPC at a time).
pub struct RpcSlot<'a> {
    /// The client host.
    pub client: HostId,
    /// Picks the server for each round.
    pub next_server: Box<dyn FnMut() -> HostId + 'a>,
}

/// Request/response driver: each slot sends `request_bytes` to a server,
/// the server replies with `response_bytes`, and the round-trip completion
/// time is recorded; repeated for `rounds` rounds per slot.
pub struct RpcDriver<'a> {
    slots: Vec<RpcState<'a>>,
    factory: FlowFactory<'a>,
    request_bytes: u64,
    response_bytes: u64,
    rounds: u64,
    /// Completed round times (one entry per finished round, any slot),
    /// in microseconds.
    pub round_times_us: Vec<f64>,
    /// Retransmission count summed over all request/response flows.
    pub retransmits: u64,
}

struct RpcState<'a> {
    slot: RpcSlot<'a>,
    rounds_done: u64,
    round_start: SimTime,
    current_server: HostId,
}

impl<'a> RpcDriver<'a> {
    /// Create the driver and launch round 1 on every slot.
    pub fn start(
        sim: &mut Simulator,
        slots: Vec<RpcSlot<'a>>,
        mut factory: FlowFactory<'a>,
        request_bytes: u64,
        response_bytes: u64,
        rounds: u64,
    ) -> Self {
        assert!(rounds >= 1);
        let mut states: Vec<RpcState> = slots
            .into_iter()
            .map(|slot| RpcState {
                slot,
                rounds_done: 0,
                round_start: SimTime::ZERO,
                current_server: HostId(0),
            })
            .collect();
        for (i, st) in states.iter_mut().enumerate() {
            let server = (st.slot.next_server)();
            st.current_server = server;
            st.round_start = sim.now;
            let spec = make_spec(
                &mut factory,
                st.slot.client,
                server,
                request_bytes,
                tag(i, Phase::Request),
            );
            sim.start_flow(spec);
        }
        RpcDriver {
            slots: states,
            factory,
            request_bytes,
            response_bytes,
            rounds,
            round_times_us: Vec::new(),
            retransmits: 0,
        }
    }

    /// True when every slot has finished all its rounds.
    pub fn done(&self) -> bool {
        self.slots.iter().all(|s| s.rounds_done >= self.rounds)
    }

    /// Configured request size (bytes).
    pub fn request_bytes(&self) -> u64 {
        self.request_bytes
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Phase {
    Request,
    Response,
}

fn tag(slot: usize, phase: Phase) -> u64 {
    (slot as u64) << 1
        | match phase {
            Phase::Request => 0,
            Phase::Response => 1,
        }
}

fn untag(t: u64) -> (usize, Phase) {
    (
        (t >> 1) as usize,
        if t & 1 == 0 {
            Phase::Request
        } else {
            Phase::Response
        },
    )
}

impl Driver for RpcDriver<'_> {
    fn on_flow_complete(&mut self, sim: &mut Simulator, rec: FlowRecord) {
        self.retransmits += rec.retransmits;
        let (i, phase) = untag(rec.owner_tag);
        match phase {
            Phase::Request => {
                // Server received the request: send the response back.
                let st = &self.slots[i];
                let spec = make_spec(
                    &mut self.factory,
                    st.current_server,
                    st.slot.client,
                    self.response_bytes,
                    tag(i, Phase::Response),
                );
                sim.start_flow(spec);
            }
            Phase::Response => {
                let st = &mut self.slots[i];
                let rtt = sim.now - st.round_start;
                self.round_times_us.push(rtt.as_us_f64());
                st.rounds_done += 1;
                if st.rounds_done < self.rounds {
                    let server = (st.slot.next_server)();
                    st.current_server = server;
                    st.round_start = sim.now;
                    let spec = make_spec(
                        &mut self.factory,
                        st.slot.client,
                        server,
                        self.request_bytes,
                        tag(i, Phase::Request),
                    );
                    sim.start_flow(spec);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Staged shuffle (Hadoop-style) driver
// ---------------------------------------------------------------------------

/// A single transfer within a stage.
#[derive(Debug, Clone, Copy)]
pub struct Transfer {
    pub src: HostId,
    pub dst: HostId,
    pub size_bytes: u64,
    /// Worker this transfer is accounted to (its per-worker stage time).
    pub worker: usize,
}

/// One stage: a set of transfers executed with a per-worker concurrency
/// limit; the stage ends when all its transfers complete.
#[derive(Debug, Clone)]
pub struct Stage {
    pub name: String,
    pub transfers: Vec<Transfer>,
}

/// Runs stages strictly in sequence; within a stage each worker keeps at
/// most `concurrency` of its transfers in flight (the paper's "4 concurrent
/// blocks at a time").
pub struct ShuffleDriver<'a> {
    stages: Vec<Stage>,
    factory: FlowFactory<'a>,
    concurrency: usize,
    n_workers: usize,
    current: usize,
    stage_start: SimTime,
    /// Per worker: queue of not-yet-started transfer indices of the current
    /// stage.
    pending: Vec<Vec<usize>>,
    outstanding: Vec<usize>,
    remaining_in_stage: usize,
    /// `results[stage][worker]` = completion time of that worker's share of
    /// the stage, in microseconds (0 if the worker had no transfers).
    pub results: Vec<Vec<f64>>,
}

impl<'a> ShuffleDriver<'a> {
    /// Create and start the first stage.
    pub fn start(
        sim: &mut Simulator,
        stages: Vec<Stage>,
        factory: FlowFactory<'a>,
        concurrency: usize,
        n_workers: usize,
    ) -> Self {
        assert!(!stages.is_empty());
        assert!(concurrency >= 1);
        let mut driver = ShuffleDriver {
            stages,
            factory,
            concurrency,
            n_workers,
            current: 0,
            stage_start: sim.now,
            pending: Vec::new(),
            outstanding: Vec::new(),
            remaining_in_stage: 0,
            results: Vec::new(),
        };
        driver.begin_stage(sim);
        driver
    }

    fn begin_stage(&mut self, sim: &mut Simulator) {
        let stage = &self.stages[self.current];
        self.stage_start = sim.now;
        self.pending = vec![Vec::new(); self.n_workers];
        self.outstanding = vec![0; self.n_workers];
        self.remaining_in_stage = stage.transfers.len();
        self.results.push(vec![0.0; self.n_workers]);
        for (idx, t) in stage.transfers.iter().enumerate() {
            assert!(t.worker < self.n_workers, "worker index out of range");
            self.pending[t.worker].push(idx);
        }
        for w in 0..self.n_workers {
            self.launch_for_worker(sim, w);
        }
    }

    fn launch_for_worker(&mut self, sim: &mut Simulator, w: usize) {
        while self.outstanding[w] < self.concurrency {
            let Some(idx) = self.pending[w].pop() else {
                break;
            };
            let t = self.stages[self.current].transfers[idx];
            let spec = make_spec(
                &mut self.factory,
                t.src,
                t.dst,
                t.size_bytes,
                (self.current as u64) << 32 | w as u64,
            );
            sim.start_flow(spec);
            self.outstanding[w] += 1;
        }
    }

    /// True when every stage has completed.
    pub fn done(&self) -> bool {
        self.current >= self.stages.len()
    }

    /// Stage names in order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.name.as_str()).collect()
    }
}

impl Driver for ShuffleDriver<'_> {
    fn on_flow_complete(&mut self, sim: &mut Simulator, rec: FlowRecord) {
        let stage = (rec.owner_tag >> 32) as usize;
        let w = (rec.owner_tag & 0xFFFF_FFFF) as usize;
        debug_assert_eq!(stage, self.current, "stray completion from old stage");
        self.outstanding[w] -= 1;
        self.remaining_in_stage -= 1;
        if self.pending[w].is_empty() && self.outstanding[w] == 0 {
            // This worker finished its share of the stage.
            self.results[self.current][w] = (sim.now - self.stage_start).as_us_f64();
        } else {
            self.launch_for_worker(sim, w);
        }
        if self.remaining_in_stage == 0 {
            self.current += 1;
            if self.current < self.stages.len() {
                self.begin_stage(sim);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ConnId;
    use crate::sim::{run, SimConfig};
    use pnet_routing::{host_route, Path, RouteAlgo, Router};
    use pnet_topology::{assemble_homogeneous, FatTree, LinkProfile, Network, PlaneId};

    fn net() -> Network {
        assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default())
    }

    fn factory_for(net: &Network) -> FlowFactory<'_> {
        let router = Router::new(net, RouteAlgo::Ksp { k: 1 });
        Box::new(move |src, dst, _size| {
            let (ra, rb) = (net.rack_of_host(src), net.rack_of_host(dst));
            let p = if ra == rb {
                Path::intra_rack(PlaneId(0))
            } else {
                router.paths_in_plane(PlaneId(0), ra, rb).get(0).to_path()
            };
            (vec![host_route(net, src, dst, &p).unwrap()], CcAlgo::Reno)
        })
    }

    #[test]
    fn closed_loop_keeps_slots_busy() {
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        let slots = vec![ClosedLoopSlot {
            src: HostId(0),
            next_dst: Box::new(|| HostId(15)),
            next_size: Box::new(|| 150_000),
        }];
        let mut driver =
            ClosedLoopDriver::start(&mut sim, slots, factory_for(&n), SimTime::from_ms(1));
        run(&mut sim, &mut driver, Some(SimTime::from_ms(2)));
        // 150 kB at ~100G takes ~15-30 us; in 1 ms we expect dozens of
        // completions.
        assert!(
            driver.completed.len() > 20,
            "only {} closed-loop flows",
            driver.completed.len()
        );
        // No flow started after the stop time.
        assert!(driver
            .completed
            .iter()
            .all(|r| r.start <= SimTime::from_ms(1)));
    }

    #[test]
    fn open_loop_arrivals_follow_the_clock() {
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        // Deterministic 10 us inter-arrival, constant 15 kB flows between a
        // fixed pair: in 1 ms of arrivals we expect ~100 starts.
        let mut toggle = 0u32;
        let driver_flow = Box::new(move || {
            toggle += 1;
            if toggle.is_multiple_of(2) {
                (HostId(0), HostId(15), 15_000u64)
            } else {
                (HostId(2), HostId(13), 15_000u64)
            }
        });
        let gap = Box::new(|| SimTime::from_us(10));
        let mut driver = OpenLoopDriver::start(
            &mut sim,
            factory_for(&n),
            driver_flow,
            gap,
            SimTime::from_ms(1),
        );
        run(&mut sim, &mut driver, None);
        assert_eq!(driver.started, 99, "arrivals at 10us..990us");
        assert_eq!(driver.completed.len(), 99, "all flows must drain");
        // A 15kB flow at light load finishes in ~10us; mean FCT sane.
        let mean = crate::metrics::mean(&crate::metrics::fcts_us(&driver.completed));
        assert!(mean < 100.0, "mean fct {mean}us too high for light load");
    }

    #[test]
    fn open_loop_stops_arrivals_at_deadline() {
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        let driver_flow = Box::new(|| (HostId(0), HostId(15), 1_500u64));
        let gap = Box::new(|| SimTime::from_us(100));
        let mut driver = OpenLoopDriver::start(
            &mut sim,
            factory_for(&n),
            driver_flow,
            gap,
            SimTime::from_us(250),
        );
        run(&mut sim, &mut driver, None);
        // Arrivals at 100us and 200us only (300us is past the deadline).
        assert_eq!(driver.started, 2);
        assert!(driver
            .completed
            .iter()
            .all(|r| r.start <= SimTime::from_us(250)));
    }

    #[test]
    fn each_record_has_one_owner() {
        let n = net();
        let in_completion_order =
            |recs: &[FlowRecord]| recs.windows(2).all(|w| w[0].finish <= w[1].finish);

        // Open loop: the driver keeps every record, the simulator none.
        let mut sim = Simulator::new(&n, SimConfig::default());
        let mut size = 0;
        let next_flow = Box::new(move || {
            size = size % 7 + 1;
            (HostId(size), HostId(15 - size), 1_500 * u64::from(size))
        });
        let gap = Box::new(|| SimTime::from_us(3));
        let stop = SimTime::from_us(300);
        let mut driver = OpenLoopDriver::start(&mut sim, factory_for(&n), next_flow, gap, stop);
        run(&mut sim, &mut driver, None);
        assert!(sim.records.is_empty());
        assert_eq!(driver.completed.len() as u64, driver.started);
        assert!(in_completion_order(&driver.completed));

        // No driver: the simulator keeps every record.
        let mut sim = Simulator::new(&n, SimConfig::default());
        let mut factory = factory_for(&n);
        let ids: Vec<ConnId> = (1..8u32)
            .map(|h| {
                let (src, dst) = (HostId(h), HostId(15 - h));
                sim.start_flow(make_spec(&mut factory, src, dst, 9_000 / u64::from(h), 0))
            })
            .collect();
        crate::sim::run_to_completion(&mut sim);
        assert_eq!(sim.records.len(), ids.len());
        assert!(in_completion_order(&sim.records));
        for id in ids {
            assert_eq!(sim.records.iter().filter(|r| r.conn == id).count(), 1);
        }
    }

    #[test]
    fn rpc_rounds_complete_and_measure() {
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        let slots = vec![
            RpcSlot {
                client: HostId(0),
                next_server: Box::new(|| HostId(15)),
            },
            RpcSlot {
                client: HostId(2),
                next_server: Box::new(|| HostId(13)),
            },
        ];
        let mut driver = RpcDriver::start(&mut sim, slots, factory_for(&n), 1500, 1500, 5);
        run(&mut sim, &mut driver, None);
        assert!(driver.done());
        assert_eq!(driver.round_times_us.len(), 10);
        // A 1-packet ping-pong across 5 switch hops each way: ~2 x 5 us
        // one-way => under 50 us per round, over 5 us.
        for &t in &driver.round_times_us {
            assert!(t > 5.0 && t < 50.0, "round time {t} us");
        }
    }

    #[test]
    fn shuffle_stages_run_in_order() {
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        let stage = |name: &str, sz: u64| Stage {
            name: name.into(),
            transfers: (0..4u32)
                .map(|w| Transfer {
                    src: HostId(w),
                    dst: HostId(15 - w),
                    size_bytes: sz,
                    worker: w as usize,
                })
                .collect(),
        };
        let stages = vec![stage("read", 300_000), stage("shuffle", 150_000)];
        let mut driver = ShuffleDriver::start(&mut sim, stages, factory_for(&n), 2, 4);
        run(&mut sim, &mut driver, None);
        assert!(driver.done());
        assert_eq!(driver.results.len(), 2);
        for stage_result in &driver.results {
            for &t in stage_result {
                assert!(t > 0.0, "worker never finished its stage");
            }
        }
    }

    #[test]
    fn shuffle_concurrency_limit_respected() {
        // 1 worker, 6 transfers, concurrency 1: transfers serialize, so the
        // stage takes at least 6x one transfer's wire time.
        let n = net();
        let mut sim = Simulator::new(&n, SimConfig::default());
        let stages = vec![Stage {
            name: "serial".into(),
            transfers: (0..6)
                .map(|_| Transfer {
                    src: HostId(0),
                    dst: HostId(15),
                    size_bytes: 1_500_000,
                    worker: 0,
                })
                .collect(),
        }];
        let mut driver = ShuffleDriver::start(&mut sim, stages, factory_for(&n), 1, 1);
        run(&mut sim, &mut driver, None);
        let t = driver.results[0][0];
        // 6 x 1.5 MB = 9 MB at 100G = 720 us minimum.
        assert!(t >= 720.0, "stage time {t} us implies overlap");
    }

    #[test]
    fn tag_roundtrip() {
        for slot in [0usize, 1, 5, 1000] {
            for phase in [Phase::Request, Phase::Response] {
                let (s, p) = untag(tag(slot, phase));
                assert_eq!(s, slot);
                assert_eq!(p, phase);
            }
        }
    }
}
