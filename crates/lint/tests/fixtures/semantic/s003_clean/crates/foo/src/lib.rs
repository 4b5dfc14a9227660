//! S003 fixture: the same suppressed clock read, but genuinely
//! host-side — nothing on the `Sim::step`/handler paths reaches it.

pub struct Sim;

impl Sim {
    fn step(&mut self) {
        advance();
    }
}

fn advance() {}

fn host_main() {
    profile_hook();
}

fn profile_hook() {
    let t = Instant::now(); // punch-lint: allow(D001) host driver loop, outside the sim
    drop(t);
}
