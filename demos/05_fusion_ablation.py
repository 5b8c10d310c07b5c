"""Compare the four modality-fusion strategies under an equal budget.

Cross-attention routes informative note embeddings through the decoder;
early concatenation and early summation merge them before the head;
waveform-only drops them.  With notes that are genuinely informative and
a deliberately tight budget, the fusion modes should pull ahead.

(The same experiment is available from the shell as
``ecgfusion ablate --modes ...``.)
"""

import time

from ecgfusion.data import SplitSpec, prepare_records, split, synth_dataset
from ecgfusion.model import FUSION_MODES, EcgTransformer, ModelConfig
from ecgfusion.training import TrainConfig, evaluate, fit_with_early_stop

ds = synth_dataset(n_per_class=60, seed=12, notes_informative=True)
records = prepare_records(ds)
parts = split(records, SplitSpec(0.7, 0.15, 0.15, seed=12))
budget = TrainConfig(learning_rate=0.0005, batch_size=4, max_epochs=3, early_stop_patience=3)
print(f"{len(parts[0])} train / {len(parts[1])} val / {len(parts[2])} test, 3 epochs per mode\n")

print(f"{'mode':<16} {'train':>6} {'val':>6} {'test':>6}   time")
for mode in FUSION_MODES:
    config = ModelConfig(
        d_model=16,
        n_heads=2,
        n_encoder_layers=1,
        n_decoder_layers=1,
        dropout=0.1,
        feedforward_dim=32,
        fusion_mode=mode,
    )
    model = EcgTransformer(config, seed=12)
    t0 = time.time()
    best_params, _, _ = fit_with_early_stop(model, parts[0], parts[1], budget)
    model.params = best_params
    tr = evaluate(model, parts[0])[1]
    va = evaluate(model, parts[1])[1]
    te = evaluate(model, parts[2])[1]
    print(f"{mode:<16} {tr:6.3f} {va:6.3f} {te:6.3f}   {time.time() - t0:4.0f}s")

print("\nwith informative notes, the multimodal modes should beat waveform_only")
