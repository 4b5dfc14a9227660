//! A binary's items are not library surface.

pub fn only_in_this_binary() {}

fn main() {}
