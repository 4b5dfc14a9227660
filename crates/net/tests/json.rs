//! Layout rules of the shared JSON writer.

use punch_net::Json;

#[test]
fn pretty_containers_inline_leaves_and_escapes() {
    let doc = Json::obj([
        ("name", Json::str("a \"quoted\\path\"\n")),
        ("ratio", Json::num(format!("{:.1}", 2.25))),
        ("missing", Json::opt(None::<u64>)),
        ("empty", Json::obj(Vec::<(&str, Json)>::new())),
        ("list", Json::Arr(vec![Json::num(1), Json::Arr(Vec::new())])),
        (
            "leaf",
            Json::obj([("k", Json::Arr(vec![Json::num(1), Json::str("inf")]))]).inline(),
        ),
    ]);
    let expected = r#"{
  "name": "a \"quoted\\path\"\u000a",
  "ratio": 2.2,
  "missing": null,
  "empty": {},
  "list": [
    1,
    []
  ],
  "leaf": {"k": [1, "inf"]}
}
"#;
    assert_eq!(doc.render(), expected);
}
