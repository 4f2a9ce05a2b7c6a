#include "core/trainer.h"

#include <algorithm>
#include <numeric>

#include "nn/loss.h"
#include "util/check.h"

namespace lmkg::core {

EpochSchedule::EpochSchedule(int num_epochs, size_t examples_per_batch,
                             double clip_norm)
    : epochs(num_epochs),
      batch_size(examples_per_batch),
      grad_clip_norm(clip_norm) {
  LMKG_CHECK_GE(batch_size, size_t{1});
}

TrainStats RunEpochs(const EpochLoop& loop, size_t examples,
                     const BatchStep& step) {
  const EpochSchedule& schedule = loop.schedule;
  const std::vector<nn::ParamRef>& params = loop.optimizer.params();
  std::vector<size_t> order(examples);
  std::iota(order.begin(), order.end(), size_t{0});
  TrainStats stats;
  stats.examples = examples;
  for (int epoch = 1; epoch <= schedule.epochs; ++epoch) {
    loop.shuffle.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < examples; start += schedule.batch_size) {
      const size_t end = std::min(start + schedule.batch_size, examples);
      for (const nn::ParamRef& p : params) p.grad->SetZero();
      epoch_loss += step(std::span<const size_t>(order).subspan(
          start, end - start));
      nn::ClipGradientNorm(params, schedule.grad_clip_norm);
      loop.optimizer.Step();
      ++batches;
    }
    const double mean_loss =
        epoch_loss / static_cast<double>(std::max<size_t>(batches, 1));
    stats.epoch_losses.push_back(mean_loss);
    loop.trained = true;
    if (loop.callback) loop.callback(epoch, mean_loss);
  }
  stats.seconds = loop.clock.ElapsedSeconds();
  return stats;
}

SupervisedAdapter EncodedRows(nn::Sequential& net,
                              const nn::Matrix& features) {
  return {[&net, &features, batch = nn::Matrix()](
              std::span<const size_t> rows) mutable -> const nn::Matrix& {
            batch.Resize(rows.size(), features.cols());
            for (size_t i = 0; i < rows.size(); ++i)
              std::copy_n(features.row(rows[i]), features.cols(),
                          batch.row(i));
            return net.Forward(batch, /*training=*/true);
          },
          [&net](const nn::Matrix& dpred) { net.Backward(dpred); }};
}

SupervisedAdapter EncodedRows(nn::Sequential& net,
                              const nn::SparseRows& features) {
  return {[&net, &features, batch = nn::SparseRows()](
              std::span<const size_t> rows) mutable -> const nn::Matrix& {
            batch.Clear(features.cols);
            for (size_t row : rows) {
              batch.col.insert(
                  batch.col.end(),
                  features.col.begin() + features.row_begin[row],
                  features.col.begin() + features.row_begin[row + 1]);
              batch.row_begin.push_back(batch.col.size());
            }
            return net.ForwardSparseInput(batch, /*training=*/true);
          },
          [&net](const nn::Matrix& dpred) { net.Backward(dpred); }};
}

TrainStats TrainSupervised(const EpochLoop& loop,
                           const std::vector<double>& cardinalities,
                           LossKind loss, util::LogMinMaxScaler& scaler,
                           const SupervisedAdapter& adapter) {
  LMKG_CHECK(!cardinalities.empty()) << "training requires data";
  if (!scaler.fitted()) scaler.Fit(cardinalities);
  const double log_range = scaler.log_max() - scaler.log_min();
  std::vector<float> labels(cardinalities.size());
  for (size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<float>(scaler.Scale(cardinalities[i]));

  std::vector<float> batch_labels;
  nn::Matrix dpred;
  return RunEpochs(loop, labels.size(), [&](std::span<const size_t> batch) {
    batch_labels.resize(batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
      batch_labels[i] = labels[batch[i]];
    const nn::Matrix& pred = adapter.forward(batch);
    const double value =
        loss == LossKind::kQError
            ? nn::QErrorLoss(pred, batch_labels, log_range, &dpred)
            : nn::MseLoss(pred, batch_labels, &dpred);
    adapter.backward(dpred);
    return value;
  });
}

}  // namespace lmkg::core
