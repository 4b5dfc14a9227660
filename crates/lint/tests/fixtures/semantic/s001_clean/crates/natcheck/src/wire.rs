//! S001 fixture: a healthy codec — unique tags, each encoded and decoded.

pub const TAG_PING: u8 = 1;
pub const TAG_PONG: u8 = 2;

fn encode(buf: &mut Vec<u8>, pong: bool) {
    if pong {
        buf.push(TAG_PONG);
    } else {
        buf.push(TAG_PING);
    }
}

fn decode(b: u8) -> u32 {
    match b {
        TAG_PING => 1,
        TAG_PONG => 2,
        _ => 0,
    }
}
