// Thread counts of the execution layer: what a `threads` knob resolves
// to.
#pragma once

namespace bcn::exec {

// Number of workers a `threads` knob resolves to: 0 means "all hardware
// threads" (never less than 1), anything else is taken literally.
int resolve_threads(int requested);

// Hardware threads this machine offers (never less than 1) -- what a
// `threads` knob of 0 resolves to.
int hardware_threads();

}  // namespace bcn::exec
