// Table 1 bench binary: the "table1" artifact spec run through api::Session,
// exactly as `ppctl run examples/specs/table1.json` and ppd run it.
#include "common.hpp"

int main() { return pp::bench::artifact_main("table1", pp::api::ExperimentKind::kSolo); }
