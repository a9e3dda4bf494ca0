//! Edge cases of the RMI endpoint: call-window bounds, server-only
//! endpoints, the compute-charge API and malformed traffic.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use mage_rmi::{
    client_endpoint, drive_call, Config, Endpoint, Fault, ObjectEnv, RemoteObject, ServerOnly,
};
use mage_sim::{Actor, Context, NodeId, SimDuration, World};

struct Counter {
    hits: Rc<Cell<u64>>,
    service_time: SimDuration,
}

impl RemoteObject for Counter {
    fn invoke(
        &mut self,
        method: &str,
        _args: &[u8],
        env: &mut ObjectEnv<'_>,
    ) -> Result<Vec<u8>, Fault> {
        match method {
            "inc" => {
                env.consume(self.service_time);
                self.hits.set(self.hits.get() + 1);
                Ok(mage_rmi::encode_args(&self.hits.get()).expect("encodes"))
            }
            other => Err(Fault::NoSuchMethod {
                object: "counter".into(),
                method: other.into(),
            }),
        }
    }
}

#[test]
fn server_only_endpoints_serve_bound_objects() {
    let hits = Rc::new(Cell::new(0));
    let mut world = World::new(3);
    let cfg = Config::zero_cost();
    let client = world.add_node("c", client_endpoint(cfg));
    let mut server_ep: Endpoint<ServerOnly> = Endpoint::new(ServerOnly, cfg);
    server_ep.bind(
        "counter",
        Box::new(Counter {
            hits: Rc::clone(&hits),
            service_time: SimDuration::ZERO,
        }),
    );
    let server = world.add_node("s", server_ep);
    let out = drive_call(&mut world, client, server, "counter", "inc", vec![])
        .unwrap()
        .unwrap();
    let n: u64 = mage_rmi::decode_result(&out).unwrap();
    assert_eq!(n, 1);
    // A ServerOnly app leaves unknown objects unhandled.
    let err = drive_call(&mut world, client, server, "ghost", "inc", vec![])
        .unwrap()
        .unwrap_err();
    assert!(err.contains("no object bound"), "{err}");
}

#[test]
fn service_time_delays_the_response() {
    let hits = Rc::new(Cell::new(0));
    let mut world = World::new(4);
    let cfg = Config::zero_cost();
    let client = world.add_node("c", client_endpoint(cfg));
    let mut server_ep: Endpoint<ServerOnly> = Endpoint::new(ServerOnly, cfg);
    server_ep.bind(
        "slow",
        Box::new(Counter {
            hits: Rc::clone(&hits),
            service_time: SimDuration::from_millis(25),
        }),
    );
    let server = world.add_node("s", server_ep);
    let start = world.now();
    drive_call(&mut world, client, server, "slow", "inc", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(world.now() - start, SimDuration::from_millis(25));
}

/// Runs an endpoint and records the most calls its call windows held
/// after any event.
struct Watched {
    endpoint: Endpoint<ServerOnly>,
    most_held: Rc<Cell<usize>>,
}

impl Watched {
    fn record(&self) {
        let held = self.endpoint.window_slots();
        self.most_held.set(self.most_held.get().max(held));
    }
}

impl Actor for Watched {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        self.endpoint.on_message(ctx, from, payload);
        self.record();
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        self.endpoint.on_timer(ctx, tag);
        self.record();
    }
}

#[test]
fn call_window_is_bounded() {
    // Hammer 50 distinct calls: the endpoint must not grow without bound
    // and must keep answering correctly. One call in flight at a time, so
    // each request's floor frees the answer before it.
    let hits = Rc::new(Cell::new(0));
    let most_held = Rc::new(Cell::new(0));
    let mut world = World::new(5);
    let cfg = Config::zero_cost();
    let client = world.add_node("c", client_endpoint(cfg));
    let mut server_ep: Endpoint<ServerOnly> = Endpoint::new(ServerOnly, cfg);
    server_ep.bind(
        "counter",
        Box::new(Counter {
            hits: Rc::clone(&hits),
            service_time: SimDuration::ZERO,
        }),
    );
    let server = world.add_node(
        "s",
        Watched {
            endpoint: server_ep,
            most_held: Rc::clone(&most_held),
        },
    );
    for i in 1..=50u64 {
        let out = drive_call(&mut world, client, server, "counter", "inc", vec![])
            .unwrap()
            .unwrap();
        let n: u64 = mage_rmi::decode_result(&out).unwrap();
        assert_eq!(n, i);
    }
    assert_eq!(hits.get(), 50);
    assert_eq!(
        most_held.get(),
        1,
        "the window holds only the latest answer"
    );
}

#[test]
fn malformed_wire_bytes_are_ignored_not_fatal() {
    let hits = Rc::new(Cell::new(0));
    let mut world = World::new(6);
    let cfg = Config::zero_cost();
    let client = world.add_node("c", client_endpoint(cfg));
    let mut server_ep: Endpoint<ServerOnly> = Endpoint::new(ServerOnly, cfg);
    server_ep.bind(
        "counter",
        Box::new(Counter {
            hits: Rc::clone(&hits),
            service_time: SimDuration::ZERO,
        }),
    );
    let server = world.add_node("s", server_ep);
    // Driver payloads reach the app; ServerOnly ignores them. Then verify
    // the endpoint still serves calls.
    world.inject(server, "garbage", Bytes::from_static(&[0xFF, 0x13, 0x37]));
    world.run_until_idle().unwrap();
    let out = drive_call(&mut world, client, server, "counter", "inc", vec![])
        .unwrap()
        .unwrap();
    let n: u64 = mage_rmi::decode_result(&out).unwrap();
    assert_eq!(n, 1);
}
