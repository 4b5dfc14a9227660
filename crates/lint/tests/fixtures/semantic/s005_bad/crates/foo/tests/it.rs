#[test]
fn drives_the_crate() {
    foo::tested_only();
}
