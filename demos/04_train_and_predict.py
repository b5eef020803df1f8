"""
Training the classifier and predicting labels
=============================================

The classifier embeds a fixed-length token sequence, convolves filters
over sliding windows, max-pools in chunks, and maps the pooled features
to three label logits. Everything below runs on a generated corpus.
"""
from sentiscore.cnn import CnnConfig, predict, train_classifier
from sentiscore.lexicon import tokenize
from sentiscore.synthetic import CorpusConfig, generate_corpus

records, _ = generate_corpus(
    CorpusConfig(size=200, word_count=8, adverb_count=2, noise_rate=0.0, rng_seed=6)
)

token_lists = [tokenize(r.text) for r in records]
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

# train_classifier builds the vocabulary from the training texts (at most
# 500 terms, most frequent first), then initializes and fits the model.
model, vocab, history = train_classifier(
    token_lists, [r.label for r in records], config, vocab_size=500
)
print(f"vocabulary: {len(vocab)} entries")
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
