"""
Training the classifier and predicting labels
=============================================

The classifier embeds a fixed-length token sequence, convolves filters
over sliding windows, max-pools in chunks, and maps the pooled features
to three label logits. Everything below runs on a generated corpus.
"""
from sentiscore.cnn import CnnConfig, fit, init_model, predict
from sentiscore.embeddings import sequence_indices
from sentiscore.lexicon import LABEL_INDEX, tokenize
from sentiscore.synthetic import CorpusConfig, generate_corpus
from sentiscore.vocab import build_vocab

records, _ = generate_corpus(
    CorpusConfig(size=200, word_count=8, adverb_count=2, noise_rate=0.0, rng_seed=6)
)

# Vocabulary from the training texts, most frequent terms first.
token_lists = [tokenize(r.text) for r in records]
vocab = build_vocab(token_lists, 500)
print(f"vocabulary: {len(vocab)} entries")

config = CnnConfig(
    window=2,
    filter_count=8,
    pool_window=2,
    sequence_length=12,
    embedding_dim=16,
    dropout_rate=0.2,
    learning_rate=0.2,
    epochs=15,
    batch_size=8,
    rng_seed=0,
)

dataset = [
    (sequence_indices(tokens, vocab, config.sequence_length), LABEL_INDEX[r.label])
    for tokens, r in zip(token_lists, records)
]

model = init_model(len(vocab), config)
model, history = fit(model, dataset, config)
print("mean loss per epoch:")
for epoch, loss in enumerate(history, start=1):
    print(f"  {epoch:2d}: {loss:.4f}")

# Accuracy on the training set (this demo overfits on purpose). predict
# takes a list of token sequences and scores them in mini-batches.
labels, probs = predict(model, token_lists, vocab, config)
hits = sum(label == record.label for label, record in zip(labels, records))
print(f"training accuracy: {hits}/{len(records)}")

for label, row, record in zip(labels[:3], probs, records):
    shown = " ".join(f"{p:.3f}" for p in row)
    print(f"  {label:8s} [{shown}]  {record.text}")
