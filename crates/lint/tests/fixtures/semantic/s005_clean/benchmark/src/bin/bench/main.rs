fn main() {
    foo::used_by_benchmark();
}
