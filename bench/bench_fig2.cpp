// The "fig2" artifact spec through api::Session, as `ppctl run` and ppd run it.
#include "common.hpp"

int main() { return pp::bench::artifact_main("fig2"); }
