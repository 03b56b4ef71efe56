#include "nn/rnn_cells.h"

namespace ealgap {
namespace nn {

RnnCell::RnnCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : hidden_size_(hidden_size),
      ih_(input_size, hidden_size, rng, /*has_bias=*/true),
      hh_(hidden_size, hidden_size, rng, /*has_bias=*/false) {
  RegisterModule("ih", &ih_);
  RegisterModule("hh", &hh_);
}

Var RnnCell::Forward(const Var& x, const Var& h) const {
  return Tanh(Add(ih_.Forward(x), hh_.Forward(h)));
}

GruCell::GruCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : hidden_size_(hidden_size),
      iz_(input_size, hidden_size, rng, true),
      hz_(hidden_size, hidden_size, rng, false),
      ir_(input_size, hidden_size, rng, true),
      hr_(hidden_size, hidden_size, rng, false),
      in_(input_size, hidden_size, rng, true),
      hn_(hidden_size, hidden_size, rng, false) {
  RegisterModule("iz", &iz_);
  RegisterModule("hz", &hz_);
  RegisterModule("ir", &ir_);
  RegisterModule("hr", &hr_);
  RegisterModule("in", &in_);
  RegisterModule("hn", &hn_);
}

Var GruCell::Forward(const Var& x, const Var& h) const {
  return GruStep(x, h,
                 {{iz_.weight(), ir_.weight(), in_.weight()},
                  {iz_.bias(), ir_.bias(), in_.bias()},
                  {hz_.weight(), hr_.weight(), hn_.weight()}});
}

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : hidden_size_(hidden_size),
      ii_(input_size, hidden_size, rng, true),
      hi_(hidden_size, hidden_size, rng, false),
      if_(input_size, hidden_size, rng, true),
      hf_(hidden_size, hidden_size, rng, false),
      ig_(input_size, hidden_size, rng, true),
      hg_(hidden_size, hidden_size, rng, false),
      io_(input_size, hidden_size, rng, true),
      ho_(hidden_size, hidden_size, rng, false) {
  RegisterModule("ii", &ii_);
  RegisterModule("hi", &hi_);
  RegisterModule("if", &if_);
  RegisterModule("hf", &hf_);
  RegisterModule("ig", &ig_);
  RegisterModule("hg", &hg_);
  RegisterModule("io", &io_);
  RegisterModule("ho", &ho_);
  // Standard trick: bias the forget gate open so gradients flow early on.
  const_cast<Tensor&>(if_.bias().value()).Fill(1.f);
}

LstmCell::State LstmCell::Forward(const Var& x, const State& s) const {
  Var i = Sigmoid(Add(ii_.Forward(x), hi_.Forward(s.h)));
  Var f = Sigmoid(Add(if_.Forward(x), hf_.Forward(s.h)));
  Var g = Tanh(Add(ig_.Forward(x), hg_.Forward(s.h)));
  Var o = Sigmoid(Add(io_.Forward(x), ho_.Forward(s.h)));
  Var c = Add(Mul(f, s.c), Mul(i, g));
  Var h = Mul(o, Tanh(c));
  return {h, c};
}

Var ZeroState(int64_t batch, int64_t hidden) {
  return Var::Leaf(Tensor::Zeros({batch, hidden}));
}

Var RunRnn(const RnnCell& cell, const std::vector<Var>& steps, Var h) {
  for (const Var& x : steps) h = cell.Forward(x, h);
  return h;
}

Var RunGru(const GruCell& cell, const std::vector<Var>& steps, Var h) {
  for (const Var& x : steps) h = cell.Forward(x, h);
  return h;
}

Var RunLstm(const LstmCell& cell, const std::vector<Var>& steps,
            LstmCell::State state) {
  for (const Var& x : steps) state = cell.Forward(x, state);
  return state.h;
}

}  // namespace nn
}  // namespace ealgap
