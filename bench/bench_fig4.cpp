// Figure 4 bench binary: the "fig4" artifact spec run through api::Session,
// exactly as `ppctl run examples/specs/fig4.json` and ppd run it.
#include "common.hpp"

int main() { return pp::bench::artifact_main("fig4", pp::api::ExperimentKind::kSweep); }
