fn main() {
    foo::used_by_example();
}
