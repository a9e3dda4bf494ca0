//! Edge cases of the RMI endpoint: dedup-cache eviction, server-only
//! endpoints, the compute-charge API and malformed traffic.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use mage_rmi::{
    client_endpoint, drive_call, Config, Endpoint, Fault, ObjectEnv, RemoteObject, ServerOnly,
};
use mage_sim::{SimDuration, World};

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

#[test]
fn response_cache_eviction_is_bounded() {
    // With a cache of 4, hammer 50 distinct calls: the endpoint must not
    // grow without bound and must keep answering correctly.
    let hits = Rc::new(Cell::new(0));
    let mut world = World::new(5);
    let cfg = Config {
        response_cache_size: 4,
        ..Config::zero_cost()
    };
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
    for i in 1..=50u64 {
        let out = drive_call(&mut world, client, server, "counter", "inc", vec![])
            .unwrap()
            .unwrap();
        let n: u64 = mage_rmi::decode_result(&out).unwrap();
        assert_eq!(n, i);
    }
    assert_eq!(hits.get(), 50);
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
