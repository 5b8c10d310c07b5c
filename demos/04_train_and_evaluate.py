"""Train a small model end to end and inspect what it learned.

Uses a desk-scale configuration (the published dimensions are 120-dim,
12 heads, 6+6 layers; here we shrink everything so the run takes tens of
seconds) on synthetic records whose note embeddings are informative.
"""

import tempfile
from pathlib import Path

import numpy as np

from ecgfusion.analysis import export_history
from ecgfusion.data import SplitSpec, prepare_records, split, synth_dataset
from ecgfusion.model import EcgTransformer, ModelConfig, load_checkpoint, save_checkpoint
from ecgfusion.training import TrainConfig, evaluate, fit_with_early_stop

ds = synth_dataset(n_per_class=20, seed=5)
records = prepare_records(ds)  # truncate + denoise + standardize, in memory
parts = split(records, SplitSpec(0.7, 0.15, 0.15, seed=5))
print(f"records: train {len(parts[0])}, val {len(parts[1])}, test {len(parts[2])}")

config = ModelConfig(
    d_model=24,
    n_heads=4,
    n_encoder_layers=1,
    n_decoder_layers=1,
    dropout=0.1,
    feedforward_dim=96,
)
model = EcgTransformer(config, seed=5)
schedule = TrainConfig(learning_rate=0.001, batch_size=4, max_epochs=18, early_stop_patience=8)

best_params, history, best_epoch = fit_with_early_stop(model, parts[0], parts[1], schedule)
for s in history:
    print(
        f"  epoch {s.epoch:2d}: train loss {s.train_loss:.4f} err {s.train_error:.3f} "
        f"| val loss {s.val_loss:.4f} err {s.val_error:.3f}"
    )
print(f"early stop kept epoch {best_epoch}")

model.params = best_params
loss, acc, probs = evaluate(model, parts[2])
print(f"test: loss {loss:.4f}, accuracy {acc:.3f}")
for rec, row in list(zip(parts[2], probs))[:3]:
    print(f"  {rec.record_id}: probs {row.round(3)}  labels {rec.labels.astype(int)}")

out = Path(tempfile.mkdtemp(prefix="ecgfusion_demo_"))
save_checkpoint(out / "model.bin", config, best_params, extra={"seed": 5})
export_history(history, out)
reloaded_config, reloaded_params, _ = load_checkpoint(out / "model.bin")
same = all(
    np.array_equal(best_params[k].data, reloaded_params[k].data) for k in best_params
)
print(f"checkpoint + curves written to {out} (round-trip exact: {same})")
