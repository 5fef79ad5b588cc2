#include "mcsn/api/sort_api.hpp"

#include <string>

#include "mcsn/core/gray.hpp"

namespace mcsn {

namespace {

std::string shape_str(SortShape s) {
  return std::to_string(s.channels) + "x" + std::to_string(s.bits);
}

}  // namespace

Status SortShape::validate() const {
  if (channels < 1 || bits < 1) {
    return Status::invalid_argument("shape " + shape_str(*this) +
                                    ": channels and bits must be >= 1");
  }
  if (channels > kMaxChannels || bits > kMaxBits) {
    return Status::invalid_argument("shape " + shape_str(*this) +
                                    ": exceeds channel/bit bounds");
  }
  return Status();
}

StatusOr<SortRequest> SortRequest::view(SortShape shape,
                                        std::span<const Trit> flat) {
  return view_batch(shape, 1, flat);
}

StatusOr<SortRequest> SortRequest::own(SortShape shape,
                                       std::vector<Trit> flat) {
  return own_batch(shape, 1, std::move(flat));
}

StatusOr<SortRequest> SortRequest::view_batch(SortShape shape,
                                              std::size_t rounds,
                                              std::span<const Trit> flat) {
  SortRequest req;
  req.shape = shape;
  req.rounds = rounds;
  req.payload = flat;
  if (Status s = req.validate(); !s.ok()) return s;
  return req;
}

StatusOr<SortRequest> SortRequest::own_batch(SortShape shape,
                                             std::size_t rounds,
                                             std::vector<Trit> flat) {
  auto storage = std::make_shared<const std::vector<Trit>>(std::move(flat));
  StatusOr<SortRequest> req = view_batch(shape, rounds, *storage);
  if (req.ok()) req->storage = std::move(storage);
  return req;
}

StatusOr<SortRequest> SortRequest::from_values(
    SortShape shape, std::span<const std::uint64_t> values) {
  if (Status s = shape.validate(); !s.ok()) return s;
  if (shape.bits > 64) {
    // Values are uint64_t: Gray-encoding them at > 64 bits would silently
    // zero-pad the high bits (or shift out of range). Reject loudly; raw
    // trit payloads remain the way to sort wider words.
    return Status::invalid_argument(
        "integer payloads require bits <= 64, got " +
        std::to_string(shape.bits) + " (use a raw trit payload instead)");
  }
  if (values.size() != static_cast<std::size_t>(shape.channels)) {
    return Status::invalid_argument(
        std::to_string(values.size()) + " values for " + shape_str(shape));
  }
  const std::uint64_t limit =
      shape.bits == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << shape.bits) - 1;
  std::vector<Trit> flat;
  flat.reserve(shape.trits());
  for (const std::uint64_t v : values) {
    if (v > limit) {
      return Status::invalid_argument("value " + std::to_string(v) +
                                      " needs more than " +
                                      std::to_string(shape.bits) + " bits");
    }
    const Word w = gray_encode(v, shape.bits);
    flat.insert(flat.end(), w.begin(), w.end());
  }
  StatusOr<SortRequest> req = own(shape, std::move(flat));
  if (req.ok()) req->values_requested = true;
  return req;
}

StatusOr<SortRequest> SortRequest::from_words(const std::vector<Word>& round) {
  if (round.empty()) {
    return Status::invalid_argument("empty round");
  }
  const SortShape shape{static_cast<int>(round.size()), round.front().size()};
  if (Status s = shape.validate(); !s.ok()) return s;
  std::vector<Trit> flat;
  flat.reserve(shape.trits());
  for (const Word& w : round) {
    if (w.size() != shape.bits) {
      return Status::invalid_argument("ragged round: word of " +
                                      std::to_string(w.size()) +
                                      " bits in a " + shape_str(shape) +
                                      " round");
    }
    flat.insert(flat.end(), w.begin(), w.end());
  }
  return own(shape, std::move(flat));
}

Status SortRequest::validate() const {
  if (Status s = shape.validate(); !s.ok()) return s;
  if (rounds < 1) {
    return Status::invalid_argument("batch of zero rounds");
  }
  // A single round is bounded by the shape limits alone (legacy wide
  // shapes may exceed kMaxBatchTrits); only true batches take the bound.
  if (rounds > 1 &&
      (rounds > kMaxBatchRounds || rounds * shape.trits() > kMaxBatchTrits)) {
    return Status::invalid_argument(
        "batch of " + std::to_string(rounds) + " rounds at " +
        shape_str(shape) + " exceeds the batch bounds");
  }
  if (payload.size() != rounds * shape.trits()) {
    return Status::invalid_argument(
        "payload of " + std::to_string(payload.size()) +
        " trits does not match " + std::to_string(rounds) + " x " +
        shape_str(shape));
  }
  return Status();
}

std::vector<Word> SortResponse::words() const {
  const std::size_t n =
      rounds * static_cast<std::size_t>(shape.channels);
  std::vector<Word> out;
  out.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    Word w(shape.bits);
    for (std::size_t b = 0; b < shape.bits; ++b) {
      w[b] = payload[c * shape.bits + b];
    }
    out.push_back(std::move(w));
  }
  return out;
}

StatusOr<std::vector<std::uint64_t>> SortResponse::values() const {
  if (!status.ok()) return status;
  return decode_flat_values(shape, payload);
}

StatusOr<std::vector<std::uint64_t>> decode_flat_values(
    SortShape shape, std::span<const Trit> payload) {
  if (payload.empty() || shape.trits() == 0 ||
      payload.size() % shape.trits() != 0) {
    return Status::invalid_argument(
        "payload of " + std::to_string(payload.size()) +
        " trits is not a whole number of " + shape_str(shape) + " rounds");
  }
  if (shape.bits > 64) {
    return Status::invalid_argument(
        "cannot decode integers at bits > 64; read the trit payload");
  }
  const std::size_t words = payload.size() / shape.bits;
  std::vector<std::uint64_t> out;
  out.reserve(words);
  for (std::size_t c = 0; c < words; ++c) {
    Word w(shape.bits);
    for (std::size_t b = 0; b < shape.bits; ++b) {
      const Trit t = payload[c * shape.bits + b];
      if (is_meta(t)) {
        return Status::failed_precondition(
            "channel " + std::to_string(c % static_cast<std::size_t>(
                                                shape.channels)) +
            " is metastable; integers cannot represent M");
      }
      w[b] = t;
    }
    out.push_back(gray_decode(w));
  }
  return out;
}

}  // namespace mcsn
