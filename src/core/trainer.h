#ifndef LMKG_CORE_TRAINER_H_
#define LMKG_CORE_TRAINER_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "nn/adam.h"
#include "nn/layer.h"
#include "nn/tensor.h"
#include "util/math.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace lmkg::core {

/// The loss a supervised model trains against (paper §VI-A concludes mean
/// q-error is the adequate objective; MSE is kept for the ablation bench).
enum class LossKind {
  kQError,
  kMse,
};

/// What one Train call reports, for every learned model.
struct TrainStats {
  std::vector<double> epoch_losses;  // mean batch loss of each epoch
  double seconds = 0.0;              // the whole Train call
  size_t examples = 0;
};

/// Called after every epoch with its 1-based number and mean loss. The
/// model is already marked trained, so the callback may estimate (Fig. 6
/// evaluates its checkpoints this way).
using EpochCallback = std::function<void(int epoch, double mean_loss)>;

/// A model's epoch-loop settings. Models build theirs from their config
/// at construction, so a batch_size of 0 (which would never advance the
/// loop) fails there.
struct EpochSchedule {
  EpochSchedule(int num_epochs, size_t examples_per_batch,
                double clip_norm);
  int epochs;
  size_t batch_size;
  double grad_clip_norm;
};

/// One Train call's hold on a model: its schedule, optimizer, shuffle
/// stream, trained flag and callback. The clock starts when the loop is
/// made, so a Train that makes it first reports the time of the whole
/// call, sampling and encoding included.
struct EpochLoop {
  const EpochSchedule& schedule;
  nn::Adam& optimizer;
  util::Pcg32& shuffle;
  bool& trained;
  EpochCallback callback;
  util::Stopwatch clock = {};
};

/// Forward, loss and backward of one batch over the training examples
/// `batch` names; returns the batch loss.
using BatchStep = std::function<double(std::span<const size_t> batch)>;

/// The one epoch loop. Each epoch shuffles the example order with
/// `loop.shuffle`; each batch zeroes the optimizer's gradients, runs
/// `step`, clips the gradient norm and takes one Adam step. After each
/// epoch it records the mean batch loss, marks the model trained and
/// fires the callback.
TrainStats RunEpochs(const EpochLoop& loop, size_t examples,
                     const BatchStep& step);

/// A supervised model's half of TrainSupervised. `forward` runs the
/// training-mode pass over the examples `rows` names and returns the
/// predictions (one column); `backward` runs the backward pass of that
/// forward from dL/dpred.
struct SupervisedAdapter {
  std::function<const nn::Matrix&(std::span<const size_t> rows)> forward;
  std::function<void(const nn::Matrix& dpred)> backward;
};

/// The adapter of an nn::Sequential over a pre-encoded training set, one
/// row per example: dense rows, or unit-valued sparse rows that the first
/// layer consumes directly. `net` and `features` must outlive it.
SupervisedAdapter EncodedRows(nn::Sequential& net,
                              const nn::Matrix& features);
SupervisedAdapter EncodedRows(nn::Sequential& net,
                              const nn::SparseRows& features);

/// Trains on (example, true cardinality) pairs through RunEpochs. The
/// first call fits `scaler`; the labels are the scaled cardinalities, and
/// the loss is the mean q-error or the MSE of the predictions against
/// them.
TrainStats TrainSupervised(const EpochLoop& loop,
                           const std::vector<double>& cardinalities,
                           LossKind loss, util::LogMinMaxScaler& scaler,
                           const SupervisedAdapter& adapter);

}  // namespace lmkg::core

#endif  // LMKG_CORE_TRAINER_H_
